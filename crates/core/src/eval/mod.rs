//! The production evaluation engine.
//!
//! [`evaluate`] runs a full graph pattern against a property graph,
//! following the §6 execution model: each comma-separated path pattern is
//! matched independently (normalization happened up front; expansion is
//! implicit in the matcher's quantifier loops), its raw matches are
//! *reduced* and *deduplicated* (§6.5), selectors are applied per endpoint
//! partition (§5.1), and the per-pattern result sets are joined on shared
//! unconditional singleton variables and filtered by the final `WHERE`
//! postfilter.
//!
//! Three match modes reproduce the §3 semantic comparison:
//!
//! * [`MatchMode::Gpml`] — the paper's semantics (default);
//! * [`MatchMode::EndpointOnly`] — SPARQL-style property-path semantics:
//!   only path endpoints are observable, so results collapse to distinct
//!   endpoint bindings (one cannot count or reconstruct paths);
//! * [`MatchMode::GsqlDefault`] — GSQL's default `ALL SHORTEST`: an
//!   unbounded quantifier with no explicit selector or restrictor
//!   implicitly receives `ALL SHORTEST` instead of being rejected.

pub(crate) mod filter;
pub mod flat;
pub(crate) mod kernel;
pub(crate) mod labels;
pub(crate) mod pool;
pub(crate) mod selector;

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

use property_graph::{NodeId, PropertyGraph};

use crate::ast::{GraphPattern, PathPatternExpr};
use crate::binding::{BoundValue, MatchRow, MatchSet, PathBinding};
use crate::error::Result;
use crate::params::Params;
use crate::plan::{prepare, ExistsPlans};
use filter::Scope;

/// Semantics variant (§3 comparison modes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MatchMode {
    /// The GPML semantics of the paper.
    #[default]
    Gpml,
    /// SPARQL property-path semantics: endpoint existence only.
    EndpointOnly,
    /// GSQL semantics: unbounded quantifiers default to `ALL SHORTEST`.
    GsqlDefault,
}

/// Match-isomorphism modes — the §7.1 language opportunity
/// ("constraining a graph pattern through the introduction of isomorphic
/// match modes").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MatchIso {
    /// The GPML default: different pattern positions may match the same
    /// graph element (homomorphic matching).
    #[default]
    Homomorphism,
    /// All edges matched across all constituent path patterns of the
    /// graph pattern must differ from each other.
    EdgeIsomorphic,
}

/// Evaluation semantics, parallelism, and resource limits.
///
/// Every field describes *what* a query means or how far it may run, never
/// which generation of the engine runs it: stage order, join algorithm,
/// and start sets are chosen by the cost model from what it observes,
/// and every admissible stage is pruned by the join's key node sets. Options are `Eq + Hash` so hosts can key plan caches on
/// `(query text, EvalOptions)`.
///
/// ```
/// use gpml_core::ast::*;
/// use gpml_core::eval::{evaluate, EvalOptions};
/// use property_graph::{Endpoints, PropertyGraph};
///
/// let mut g = PropertyGraph::new();
/// let a = g.add_node("a", ["N"], []);
/// let b = g.add_node("b", ["N"], []);
/// g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
/// let pattern = GraphPattern::single(PathPattern::concat(vec![
///     PathPattern::Node(NodePattern::var("x")),
///     PathPattern::Edge(EdgePattern::any(Direction::Right)),
///     PathPattern::Node(NodePattern::var("y")),
/// ]));
///
/// // Parallel matching is bit-for-bit identical to sequential.
/// let sequential = EvalOptions { threads: 1, ..EvalOptions::default() };
/// let parallel = EvalOptions { threads: 4, ..EvalOptions::default() };
/// assert_eq!(
///     evaluate(&g, &pattern, &sequential)?,
///     evaluate(&g, &pattern, &parallel)?,
/// );
/// # Ok::<(), gpml_core::Error>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EvalOptions {
    /// Which of the §3 semantics to apply.
    pub mode: MatchMode,
    /// Optional §7.1 isomorphic match mode.
    pub isomorphism: MatchIso,
    /// Worker threads for parallel stage matching. `0` (the default)
    /// resolves to the machine's available parallelism but stays
    /// sequential on small graphs, where spawn cost would dominate; `1`
    /// forces the sequential path; `n >= 2` always uses `n` workers.
    ///
    /// Stages always run one at a time in the cost-chosen order; the
    /// workers drain *one* stage's start set (its join seeds or its access
    /// path) in morsels, and the stage merges before the next one starts.
    /// Results are **bit-for-bit identical** at every setting, and so is
    /// the work counted by [`ExecProfile`]. Only resource-limit *errors*
    /// may differ — each morsel enforces [`EvalOptions::max_frontier`] on
    /// its own (smaller) frontier, so a parallel run can succeed where a
    /// sequential run trips the limit.
    pub threads: usize,
    /// Abort after this many raw matches for a single path pattern.
    pub max_matches: usize,
    /// Hard cap on the number of edges in any matched walk.
    pub max_path_length: usize,
    /// Abort when the search frontier exceeds this many states.
    pub max_frontier: usize,
}

/// Node count below which `threads = 0` (auto) stays sequential: spawning
/// workers for a graph this small costs more than the whole search.
const AUTO_PARALLEL_MIN_NODES: usize = 256;

impl EvalOptions {
    /// The worker count `threads` resolves to: the machine's available
    /// parallelism for `0` (auto), the explicit count otherwise.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// The worker count the executor actually uses for a graph with
    /// `node_count` nodes: an explicit `threads >= 1` is always honored,
    /// while auto (`0`) falls back to sequential on small graphs.
    pub(crate) fn effective_threads(&self, node_count: usize) -> usize {
        if self.threads == 0 && node_count < AUTO_PARALLEL_MIN_NODES {
            1
        } else {
            self.resolved_threads()
        }
    }
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            mode: MatchMode::Gpml,
            isomorphism: MatchIso::Homomorphism,
            threads: 0,
            max_matches: 1_000_000,
            max_path_length: 10_000,
            max_frontier: 1_000_000,
        }
    }
}

/// One search's tallies of the executor's named work counters — the one
/// list every rendering (`--explain`, trace spans, `STATS`, `METRICS`)
/// walks, in [`WorkCounts::NAMES`] order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Search states dequeued and expanded.
    pub nodes_expanded: u64,
    /// Adjacency steps attempted from expanded states.
    pub edges_traversed: u64,
    /// Work the accumulated join ruled out before the search did it:
    /// partial bindings rejected at `NodeTest` by a join key's node set,
    /// plus, for a seeded stage, the access-path start nodes left out of
    /// its seed set (`|access set| − |seeds|`).
    pub rows_pruned: u64,
    /// Flat-program instructions dispatched by the interpreter's inner
    /// loop, or closure arcs examined by the shortest-path kernel.
    pub instrs_dispatched: u64,
    /// Backtracks that truncated the flat interpreter's undo trail to a
    /// stack watermark.
    pub backtrack_truncations: u64,
}

impl WorkCounts {
    /// The counters' names, in the order [`WorkCounts::values`] lists
    /// them.
    pub const NAMES: [&'static str; 5] = [
        "nodes_expanded",
        "edges_traversed",
        "rows_pruned",
        "instrs_dispatched",
        "backtrack_truncations",
    ];

    /// The counters' values, in [`WorkCounts::NAMES`] order.
    pub fn values(&self) -> [u64; 5] {
        [
            self.nodes_expanded,
            self.edges_traversed,
            self.rows_pruned,
            self.instrs_dispatched,
            self.backtrack_truncations,
        ]
    }

    /// `(name, value)` pairs in [`WorkCounts::NAMES`] order.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
        WorkCounts::NAMES.into_iter().zip(self.values())
    }

    fn from_values([n, e, p, i, b]: [u64; 5]) -> WorkCounts {
        WorkCounts {
            nodes_expanded: n,
            edges_traversed: e,
            rows_pruned: p,
            instrs_dispatched: i,
            backtrack_truncations: b,
        }
    }
}

impl AddAssign for WorkCounts {
    fn add_assign(&mut self, rhs: WorkCounts) {
        let mut sum = self.values();
        for (s, r) in sum.iter_mut().zip(rhs.values()) {
            *s += r;
        }
        *self = WorkCounts::from_values(sum);
    }
}

/// A matcher's running [`WorkCounts`]: bumped without atomics in the
/// inner loop, flushed into a [`StageCounters`] once per search.
#[derive(Debug, Default)]
pub(crate) struct Tally(Cell<WorkCounts>);

impl Tally {
    /// Bumps one counter of the running tally.
    #[inline]
    pub(crate) fn bump(&self, bump: impl FnOnce(&mut WorkCounts)) {
        let mut c = self.0.get();
        bump(&mut c);
        self.0.set(c);
    }

    /// Adds the tally into `counters` and resets it.
    pub(crate) fn flush(&self, counters: &StageCounters) {
        counters.add(self.0.take());
    }
}

/// Execution counters for one stage's product-automaton search,
/// accumulated across all of the stage's partitions. Atomics, so parallel
/// partition searches add concurrently without coordination; the numbers
/// are exact because every partition is counted exactly once. The
/// server's `STATS` totals are one more of these.
#[derive(Debug, Default)]
pub struct StageCounters {
    work: [AtomicU64; 5],
    micros: AtomicU64,
}

impl StageCounters {
    /// Folds one search's tallies in.
    pub fn add(&self, counts: WorkCounts) {
        for (slot, v) in self.work.iter().zip(counts.values()) {
            slot.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// The counters as one record.
    pub fn counts(&self) -> WorkCounts {
        WorkCounts::from_values(std::array::from_fn(|i| {
            self.work[i].load(Ordering::Relaxed)
        }))
    }

    /// [`WorkCounts::nodes_expanded`] so far.
    pub fn nodes_expanded(&self) -> u64 {
        self.counts().nodes_expanded
    }

    /// [`WorkCounts::edges_traversed`] so far.
    pub fn edges_traversed(&self) -> u64 {
        self.counts().edges_traversed
    }

    /// [`WorkCounts::rows_pruned`] so far.
    pub fn rows_pruned(&self) -> u64 {
        self.counts().rows_pruned
    }

    /// [`WorkCounts::instrs_dispatched`] so far.
    pub fn instrs_dispatched(&self) -> u64 {
        self.counts().instrs_dispatched
    }

    /// [`WorkCounts::backtrack_truncations`] so far.
    pub fn backtrack_truncations(&self) -> u64 {
        self.counts().backtrack_truncations
    }

    /// Folds in wall time spent matching this stage: its (possibly
    /// chunked) search plus its reduce/dedup/select pass.
    pub(crate) fn add_micros(&self, micros: u64) {
        self.micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Microseconds of wall time spent matching this stage.
    pub fn micros(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }
}

/// Per-stage execution counters for one query run, collected by the
/// matcher when the caller asks for a profiled execution (CLI `--explain`
/// post-run output, the server's `STATS` accumulation).
#[derive(Debug, Default)]
pub struct ExecProfile {
    stages: Vec<StageCounters>,
}

impl ExecProfile {
    /// A profile with one counter block per plan stage.
    pub fn new(stage_count: usize) -> ExecProfile {
        ExecProfile {
            stages: (0..stage_count).map(|_| StageCounters::default()).collect(),
        }
    }

    /// The per-stage counter blocks, indexed by declaration stage index.
    pub fn stages(&self) -> &[StageCounters] {
        &self.stages
    }

    pub(crate) fn stage(&self, i: usize) -> Option<&StageCounters> {
        self.stages.get(i)
    }

    /// Every stage's counters folded into one record.
    pub fn total(&self) -> WorkCounts {
        let mut total = WorkCounts::default();
        for s in &self.stages {
            total += s.counts();
        }
        total
    }

    /// [`ExecProfile::total`] as a tuple in [`WorkCounts::NAMES`] order:
    /// `(nodes expanded, edges traversed, rows pruned by the join,
    /// instrs dispatched, backtrack truncations)`.
    pub fn totals(&self) -> (u64, u64, u64, u64, u64) {
        let [n, e, p, i, b] = self.total().values();
        (n, e, p, i, b)
    }
}

/// Evaluates `MATCH pattern` against `graph`.
///
/// This is the one-shot entry point: a thin wrapper that lowers the
/// pattern through the [`crate::plan`] layer (mode rewrite → normalize →
/// analyze → compile → join/select/filter stages) and executes the plan
/// once. Callers that run the same pattern repeatedly should call
/// [`crate::plan::prepare`] themselves and hold on to the
/// [`crate::plan::PreparedQuery`].
pub fn evaluate(
    graph: &PropertyGraph,
    pattern: &GraphPattern,
    opts: &EvalOptions,
) -> Result<MatchSet> {
    prepare(pattern, opts)?.execute(graph)
}

/// Cross product of the per-pattern match sets, joined on shared variables
/// and filtered by the final `WHERE` (§6.5 "Multiple patterns") — the
/// declaration-order nested-loop form used by the §6 spec-literal
/// baseline. The plan executor drives a [`JoinState`] directly instead,
/// feeding stages in cost order and joining through hash tables where the
/// plan's join keys allow. `exists` carries the subplans prepared for the
/// postfilter's `EXISTS` subqueries.
pub(crate) fn join_and_filter(
    graph: &PropertyGraph,
    normalized: &GraphPattern,
    per_path: &[Vec<PathBinding>],
    opts: &EvalOptions,
    exists: &ExistsPlans,
) -> MatchSet {
    let mut join = JoinState::new(opts.isomorphism);
    for (expr, bindings) in normalized.paths.iter().zip(per_path) {
        join.merge_stage(expr, bindings, &[]);
    }
    join.finish(graph, normalized, exists, &Params::new())
}

/// Incremental cross-stage join: the accumulated rows of all stages merged
/// so far. Stages may be fed in any order (the merge is commutative up to
/// row order); the executor feeds them in the cost-chosen order and stops
/// early once the accumulation is empty.
pub(crate) struct JoinState {
    iso: MatchIso,
    /// In the edge-isomorphic mode (§7.1), rows carry the edges their
    /// constituent walks used, so overlaps across patterns are rejected;
    /// otherwise the list stays empty.
    rows: Vec<(MatchRow, Vec<property_graph::EdgeId>)>,
}

impl JoinState {
    /// The unit of the join: one empty row.
    pub(crate) fn new(iso: MatchIso) -> JoinState {
        JoinState {
            iso,
            rows: vec![(MatchRow::empty(), Vec::new())],
        }
    }

    /// True when no combination of the stages merged so far survives —
    /// every further merge (and the postfilter) is then a no-op.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The distinct node ids the accumulated rows bind `var` to, or
    /// `None` when any row lacks `var` or binds it to a non-node — the
    /// key-set extraction of sideways information passing.
    /// A later stage sharing `var` can only produce joinable bindings
    /// with `var` inside this set.
    pub(crate) fn distinct_key_nodes(&self, var: &str) -> Option<BTreeSet<NodeId>> {
        let mut set = BTreeSet::new();
        for (row, _) in &self.rows {
            match row.values.get(var) {
                Some(BoundValue::Node(n)) => {
                    set.insert(*n);
                }
                _ => return None,
            }
        }
        Some(set)
    }

    /// Merges one stage's bindings into the accumulation.
    ///
    /// `keys` are the stage's equi-join variables against the already
    /// merged stages (shared unconditional singletons, from the plan's
    /// join graph). The stage's bindings are bucketed by their key values,
    /// in declaration order within a bucket, and each accumulated row, in
    /// order, probes its bucket; every candidate pair runs the same
    /// admission check ([`JoinState::try_merge`]). No keys (a cartesian
    /// step, or the baseline's declaration-order join), or a key missing
    /// on either side, puts every binding in one bucket — the nested loop
    /// — since strict key equality would then drop pairs the per-pair
    /// check admits. Either way the output is in nested-loop order
    /// (accumulated row outer, stage binding inner).
    pub(crate) fn merge_stage(
        &mut self,
        expr: &PathPatternExpr,
        bindings: &[PathBinding],
        keys: &[&str],
    ) {
        let keyed = !keys.is_empty()
            && self
                .rows
                .iter()
                .all(|(row, _)| keys.iter().all(|k| row.values.contains_key(*k)))
            && bindings
                .iter()
                .all(|pb| keys.iter().all(|k| pb.bindings.contains_key(*k)));
        let key = |values: &BTreeMap<String, BoundValue>| -> Vec<BoundValue> {
            if keyed {
                keys.iter().map(|k| values[*k].clone()).collect()
            } else {
                Vec::new()
            }
        };
        let mut buckets: HashMap<Vec<BoundValue>, Vec<&PathBinding>> = HashMap::new();
        for pb in bindings {
            buckets.entry(key(&pb.bindings)).or_default().push(pb);
        }
        let mut next = Vec::new();
        for (row, used) in &self.rows {
            for pb in buckets.get(&key(&row.values)).into_iter().flatten() {
                next.extend(self.try_merge(row, used, pb, expr));
            }
        }
        self.rows = next;
    }

    /// Admits one (accumulated row, stage binding) pair: the §7.1
    /// edge-isomorphism overlap check, the per-variable equi-join on all
    /// shared names, and the path-variable binding. The row is copied only
    /// once the pair is admitted, and the used-edge list is kept only in
    /// the edge-isomorphic mode, the one that reads it.
    fn try_merge(
        &self,
        row: &MatchRow,
        used: &[property_graph::EdgeId],
        pb: &PathBinding,
        expr: &PathPatternExpr,
    ) -> Option<(MatchRow, Vec<property_graph::EdgeId>)> {
        let isomorphic = self.iso == MatchIso::EdgeIsomorphic;
        // The walk itself must not repeat an edge, nor reuse one matched
        // by another path pattern.
        if isomorphic && (!pb.path.is_trail() || pb.path.edges().iter().any(|e| used.contains(e))) {
            return None;
        }
        let conflicts = pb
            .bindings
            .iter()
            .any(|(var, val)| row.values.get(var).is_some_and(|existing| existing != val));
        if conflicts {
            return None;
        }
        let mut merged = row.clone();
        for (var, val) in &pb.bindings {
            merged
                .values
                .entry(var.clone())
                .or_insert_with(|| val.clone());
        }
        if let Some(pv) = &expr.path_var {
            merged
                .values
                .insert(pv.clone(), BoundValue::Path(pb.path.clone()));
        }
        let used = if isomorphic {
            [used, pb.path.edges()].concat()
        } else {
            Vec::new()
        };
        Some((merged, used))
    }

    /// Applies the final `WHERE` postfilter and produces the result set.
    /// `params` supplies the values of any `$name` placeholders in the
    /// postfilter and in its `EXISTS` subqueries, which run only as the
    /// subplans in `exists`: a subquery without one is *unknown*.
    pub(crate) fn finish(
        self,
        graph: &PropertyGraph,
        normalized: &GraphPattern,
        exists: &ExistsPlans,
        params: &Params,
    ) -> MatchSet {
        let mut rows: Vec<MatchRow> = self.rows.into_iter().map(|(r, _)| r).collect();
        if let Some(post) = &normalized.where_clause {
            // Each subplan runs at most once, under the outer execution's
            // parameters (its bind-time validation covered the
            // subpattern's too), and its result is kept under the plan's
            // own key.
            let runs: RefCell<HashMap<&GraphPattern, Option<MatchSet>>> = RefCell::default();
            rows.retain(|row| {
                let subquery = |pattern: &GraphPattern| {
                    let (key, plan) = exists.get_key_value(pattern)?;
                    let mut runs = runs.borrow_mut();
                    let sub = runs
                        .entry(key)
                        .or_insert_with(|| plan.execute_bound(graph, params).ok());
                    // Correlation: a subquery match must agree with the
                    // row on every variable the two share.
                    Some(sub.as_ref()?.rows.iter().any(|subrow| {
                        (subrow.values.iter())
                            .all(|(var, val)| row.get(var).is_none_or(|outer| outer == val))
                    }))
                };
                let scope = Scope {
                    vars: &|v| row.get(v),
                    params,
                    exists: Some(&subquery),
                };
                filter::truth(graph, &scope, post) == Some(true)
            });
        }
        MatchSet { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use property_graph::{Endpoints, NodeId, Value};

    fn node(v: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v))
    }

    fn edge_r(v: &str) -> PathPattern {
        PathPattern::Edge(EdgePattern::any(Direction::Right).with_var(v))
    }

    /// A 4-cycle a→b→c→d→a with amounts.
    fn cycle4() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| {
                g.add_node(
                    &format!("n{i}"),
                    ["Account"],
                    [("owner", Value::str(format!("o{i}")))],
                )
            })
            .collect();
        for i in 0..4 {
            let (s, d) = (ids[i], ids[(i + 1) % 4]);
            g.add_edge(
                &format!("t{i}"),
                Endpoints::directed(s, d),
                ["Transfer"],
                [("amount", Value::Int(1 + i as i64))],
            );
        }
        g
    }

    #[test]
    fn cross_pattern_join_on_singleton() {
        let g = cycle4();
        // MATCH (s)-[e1]->(m), (m)-[e2]->(t): join on m.
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(PathPattern::concat(vec![
                    node("s"),
                    edge_r("e1"),
                    node("m"),
                ])),
                PathPatternExpr::plain(PathPattern::concat(vec![
                    node("m"),
                    edge_r("e2"),
                    node("t"),
                ])),
            ],
            where_clause: None,
        };
        let rs = evaluate(&g, &gp, &EvalOptions::default()).unwrap();
        // Each of the 4 edges joins with exactly one follower.
        assert_eq!(rs.len(), 4);
        for row in rs.iter() {
            assert_ne!(row.get("e1"), row.get("e2"));
        }
    }

    #[test]
    fn postfilter_with_group_aggregate() {
        let g = cycle4();
        // MATCH (a) [()-[t:Transfer]->()]{2,2} (b) WHERE SUM(t.amount) > 5
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            PathPattern::Edge(
                EdgePattern::any(Direction::Right)
                    .with_var("t")
                    .with_label(LabelExpr::label("Transfer")),
            ),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let gp = GraphPattern {
            paths: vec![PathPatternExpr::plain(PathPattern::concat(vec![
                node("a"),
                body.quantified(Quantifier::range(2, Some(2))),
                node("b"),
            ]))],
            where_clause: Some(Expr::cmp(
                CmpOp::Gt,
                Expr::Aggregate {
                    func: AggFunc::Sum,
                    arg: AggArg::Property("t".into(), "amount".into()),
                    distinct: false,
                },
                Expr::lit(5),
            )),
        };
        let rs = evaluate(&g, &gp, &EvalOptions::default()).unwrap();
        // Chains of 2: sums 1+2=3, 2+3=5, 3+4=7, 4+1=5 → only 7 survives.
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn union_deduplicates_alternation_does_not() {
        let g = cycle4();
        let branch =
            || PathPattern::Node(NodePattern::var("c").with_label(LabelExpr::label("Account")));
        // (c:Account) | (c:Account) → 4 rows (set).
        let gp = GraphPattern::single(PathPattern::Union(vec![branch(), branch()]));
        let rs = evaluate(&g, &gp, &EvalOptions::default()).unwrap();
        assert_eq!(rs.len(), 4);
        // (c:Account) |+| (c:Account) → 8 rows (multiset).
        let gp = GraphPattern::single(PathPattern::Alternation(vec![branch(), branch()]));
        let rs = evaluate(&g, &gp, &EvalOptions::default()).unwrap();
        assert_eq!(rs.len(), 8);
    }

    #[test]
    fn overlapping_quantifiers_union_equals_merged_range() {
        // ->{1,2} | ->{2,3} over a directed chain ≡ ->{1,3} (§4.5).
        let mut g = PropertyGraph::new();
        let ns: Vec<NodeId> = (0..5)
            .map(|i| g.add_node(&format!("n{i}"), ["N"], []))
            .collect();
        for i in 0..4 {
            g.add_edge(
                &format!("e{i}"),
                Endpoints::directed(ns[i], ns[i + 1]),
                ["T"],
                [],
            );
        }
        let quant = |m, n| {
            PathPattern::Edge(EdgePattern::any(Direction::Right))
                .quantified(Quantifier::range(m, Some(n)))
        };
        let union = GraphPattern::single(PathPattern::Union(vec![quant(1, 2), quant(2, 3)]));
        let merged = GraphPattern::single(quant(1, 3));
        let a = evaluate(&g, &union, &EvalOptions::default()).unwrap();
        let b = evaluate(&g, &merged, &EvalOptions::default()).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn selector_applies_after_dedup() {
        let g = cycle4();
        // ANY SHORTEST (a)[()-[t]->()]*(b): one path per reachable pair.
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let gp = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: Some(Selector::AnyShortest),
                restrictor: None,
                path_var: Some("p".into()),
                pattern: PathPattern::concat(vec![
                    node("a"),
                    body.quantified(Quantifier::star()),
                    node("b"),
                ]),
            }],
            where_clause: None,
        };
        let rs = evaluate(&g, &gp, &EvalOptions::default()).unwrap();
        // 4×4 ordered pairs, all reachable on a cycle.
        assert_eq!(rs.len(), 16);
        for row in rs.iter() {
            let p = row.get("p").unwrap().as_path().unwrap();
            assert!(p.len() <= 3);
        }
    }

    #[test]
    fn endpoint_only_mode_collapses_paths() {
        let g = cycle4();
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let pattern = PathPattern::concat(vec![
            node("a"),
            body.quantified(Quantifier::range(1, Some(3))),
            node("b"),
        ]);
        let gpml = evaluate(
            &g,
            &GraphPattern::single(pattern.clone()),
            &EvalOptions::default(),
        )
        .unwrap();
        let sparql = evaluate(
            &g,
            &GraphPattern::single(pattern),
            &EvalOptions {
                mode: MatchMode::EndpointOnly,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        // GPML sees each path; SPARQL sees each endpoint pair once.
        assert_eq!(gpml.len(), 12); // lengths 1,2,3 from each of 4 starts
        assert_eq!(sparql.len(), 4 * 3); // distinct (start,end) pairs
        assert!(sparql.len() <= gpml.len());
    }

    #[test]
    fn gsql_default_mode_injects_all_shortest() {
        let g = cycle4();
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let pattern = PathPattern::concat(vec![
            node("a"),
            body.quantified(Quantifier::plus()),
            node("b"),
        ]);
        // Plain GPML rejects the uncovered `+`.
        assert!(evaluate(
            &g,
            &GraphPattern::single(pattern.clone()),
            &EvalOptions::default()
        )
        .is_err());
        // GSQL mode evaluates it with implicit ALL SHORTEST.
        let rs = evaluate(
            &g,
            &GraphPattern::single(pattern),
            &EvalOptions {
                mode: MatchMode::GsqlDefault,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(rs.len(), 16); // all ordered pairs incl. self via cycle
    }

    /// A row (or binding map) of node-valued variables.
    fn vars(pairs: &[(&str, u32)]) -> BTreeMap<String, BoundValue> {
        pairs
            .iter()
            .map(|&(v, n)| (v.to_owned(), BoundValue::Node(NodeId(n))))
            .collect()
    }

    /// A stage binding of `pairs` over the walk `nodes` / `edges`.
    fn binding(pairs: &[(&str, u32)], nodes: &[u32], edges: &[u32]) -> PathBinding {
        PathBinding {
            path: property_graph::Path::new(
                nodes.iter().map(|&n| NodeId(n)).collect(),
                edges.iter().map(|&e| property_graph::EdgeId(e)).collect(),
            ),
            bindings: vars(pairs),
            alt_marks: Vec::new(),
        }
    }

    fn rows(join: &JoinState) -> Vec<BTreeMap<String, BoundValue>> {
        join.rows.iter().map(|(r, _)| r.values.clone()).collect()
    }

    #[test]
    fn merge_stage_emits_nested_loop_order() {
        let expr = PathPatternExpr::plain(node("x"));
        let mut join = JoinState::new(MatchIso::Homomorphism);
        // Cartesian step from the unit row: the bindings, in order.
        join.merge_stage(
            &expr,
            &[
                binding(&[("x", 0), ("m", 1)], &[0, 1], &[0]),
                binding(&[("x", 2), ("m", 1)], &[2, 1], &[1]),
                binding(&[("x", 3), ("m", 4)], &[3, 4], &[2]),
            ],
            &[],
        );
        // Keyed on m, with m = 1 repeated on both sides: each row meets
        // its bucket in declaration order.
        join.merge_stage(
            &expr,
            &[
                binding(&[("m", 1), ("z", 5)], &[1, 5], &[3]),
                binding(&[("m", 4), ("z", 6)], &[4, 6], &[4]),
                binding(&[("m", 1), ("z", 7)], &[1, 7], &[5]),
            ],
            &["m"],
        );
        assert_eq!(
            rows(&join),
            [
                vars(&[("x", 0), ("m", 1), ("z", 5)]),
                vars(&[("x", 0), ("m", 1), ("z", 7)]),
                vars(&[("x", 2), ("m", 1), ("z", 5)]),
                vars(&[("x", 2), ("m", 1), ("z", 7)]),
                vars(&[("x", 3), ("m", 4), ("z", 6)]),
            ]
        );
        // A second cartesian step: every row, each binding in turn.
        join.merge_stage(
            &expr,
            &[
                binding(&[("c", 8)], &[8], &[]),
                binding(&[("c", 9)], &[9], &[]),
            ],
            &[],
        );
        let expected: Vec<_> = [(0, 1, 5), (0, 1, 7), (2, 1, 5), (2, 1, 7), (3, 4, 6)]
            .into_iter()
            .flat_map(|(x, m, z)| [8, 9].map(|c| vars(&[("x", x), ("m", m), ("z", z), ("c", c)])))
            .collect();
        assert_eq!(rows(&join), expected);
    }

    #[test]
    fn merge_stage_rejects_edge_isomorphic_overlaps() {
        let expr = PathPatternExpr::plain(node("x"));
        let mut join = JoinState::new(MatchIso::EdgeIsomorphic);
        join.merge_stage(
            &expr,
            &[
                binding(&[("x", 0), ("m", 1)], &[0, 1], &[0]),
                binding(&[("x", 2), ("m", 1)], &[2, 1], &[1]),
            ],
            &[],
        );
        join.merge_stage(
            &expr,
            &[
                // Reuses edge 0: rejected against the first row only.
                binding(&[("m", 1), ("z", 0)], &[1, 0], &[0]),
                // Repeats its own edge: never a trail, rejected everywhere.
                binding(&[("m", 1), ("z", 1)], &[1, 2, 1], &[7, 7]),
                binding(&[("m", 1), ("z", 3)], &[1, 3], &[2]),
            ],
            &["m"],
        );
        assert_eq!(
            rows(&join),
            [
                vars(&[("x", 0), ("m", 1), ("z", 3)]),
                vars(&[("x", 2), ("m", 1), ("z", 0)]),
                vars(&[("x", 2), ("m", 1), ("z", 3)]),
            ]
        );
        let used: Vec<Vec<u32>> = join
            .rows
            .iter()
            .map(|(_, used)| used.iter().map(|e| e.0).collect())
            .collect();
        assert_eq!(used, [vec![0, 2], vec![1, 0], vec![1, 2]]);
    }

    #[test]
    fn empty_result_when_join_fails() {
        let g = cycle4();
        let gp = GraphPattern {
            paths: vec![PathPatternExpr::plain(PathPattern::concat(vec![
                node("s"),
                edge_r("e"),
                node("s"),
            ]))],
            where_clause: None,
        };
        // No self loops in a 4-cycle.
        let rs = evaluate(&g, &gp, &EvalOptions::default()).unwrap();
        assert!(rs.is_empty());
    }
}
