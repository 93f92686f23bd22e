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
pub(crate) mod nfa;
pub(crate) mod pool;
pub(crate) mod selector;

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use property_graph::{NodeId, PropertyGraph};

pub use filter::{eval as eval_expr, truth as expr_truth, Env};

use crate::ast::{GraphPattern, PathPatternExpr};
use crate::binding::{BoundValue, MatchRow, MatchSet, PathBinding};
use crate::error::Result;
use crate::params::Params;
use crate::plan::{prepare, ExistsPlans};

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
/// and semi-join pushdown are chosen by the cost model from what it
/// observes. Options are `Eq + Hash` so hosts can key plan caches on
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
    /// Results are **bit-for-bit identical** at every setting: per-stage
    /// searches are partitioned by start node, spliced back in partition
    /// order, and merged through the join in the same cost-chosen stage
    /// order as the sequential executor. Only resource-limit *errors* may
    /// differ — each partition enforces [`EvalOptions::max_frontier`] on
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

/// Execution counters for one stage's product-automaton search,
/// accumulated across all of the stage's partitions. Atomics, so parallel
/// partition searches add concurrently without coordination; the numbers
/// are exact because every partition is counted exactly once.
#[derive(Debug, Default)]
pub struct StageCounters {
    nodes_expanded: AtomicU64,
    edges_traversed: AtomicU64,
    rows_pruned: AtomicU64,
    instrs_dispatched: AtomicU64,
    backtrack_truncations: AtomicU64,
    micros: AtomicU64,
}

impl StageCounters {
    /// Folds one search's tallies in.
    pub(crate) fn add(&self, nodes: u64, edges: u64, pruned: u64, instrs: u64, truncations: u64) {
        self.nodes_expanded.fetch_add(nodes, Ordering::Relaxed);
        self.edges_traversed.fetch_add(edges, Ordering::Relaxed);
        self.rows_pruned.fetch_add(pruned, Ordering::Relaxed);
        self.instrs_dispatched.fetch_add(instrs, Ordering::Relaxed);
        self.backtrack_truncations
            .fetch_add(truncations, Ordering::Relaxed);
    }

    /// Search states dequeued and expanded.
    pub fn nodes_expanded(&self) -> u64 {
        self.nodes_expanded.load(Ordering::Relaxed)
    }

    /// Adjacency steps attempted from expanded states.
    pub fn edges_traversed(&self) -> u64 {
        self.edges_traversed.load(Ordering::Relaxed)
    }

    /// Work the accumulated join ruled out before the search did it:
    /// partial bindings rejected by a pushed-down semi-join filter, plus,
    /// for a seeded stage, the access-path start nodes left out of its
    /// seed set (`|access set| − |seeds|`).
    pub fn rows_pruned(&self) -> u64 {
        self.rows_pruned.load(Ordering::Relaxed)
    }

    /// Flat-program instructions dispatched by the inner matching loop.
    pub fn instrs_dispatched(&self) -> u64 {
        self.instrs_dispatched.load(Ordering::Relaxed)
    }

    /// Backtracks that truncated the flat interpreter's undo trail to a
    /// stack watermark.
    pub fn backtrack_truncations(&self) -> u64 {
        self.backtrack_truncations.load(Ordering::Relaxed)
    }

    /// Folds in wall time spent matching this stage. Under parallel
    /// execution each partition's worker adds its own share, so this is
    /// *work* time: it can exceed the stage's wall-clock span.
    pub(crate) fn add_micros(&self, micros: u64) {
        self.micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Microseconds spent matching this stage, summed over partitions.
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

    /// Totals across all stages: `(nodes expanded, edges traversed, rows
    /// pruned by the join (see [`StageCounters::rows_pruned`]), flat
    /// instructions dispatched, backtrack truncations)`.
    pub fn totals(&self) -> (u64, u64, u64, u64, u64) {
        self.stages
            .iter()
            .fold((0, 0, 0, 0, 0), |(n, e, p, i, b), s| {
                (
                    n + s.nodes_expanded(),
                    e + s.edges_traversed(),
                    p + s.rows_pruned(),
                    i + s.instrs_dispatched(),
                    b + s.backtrack_truncations(),
                )
            })
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
/// plan's join keys allow. `exists` carries any subplans prepared for the
/// postfilter's `EXISTS` subqueries; patterns without a prepared subplan
/// are prepared on the fly (the baseline's path).
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
    join.finish(graph, normalized, opts, exists, &Params::new())
}

/// Incremental cross-stage join: the accumulated rows of all stages merged
/// so far. Stages may be fed in any order (the merge is commutative up to
/// row order); the executor feeds them in the cost-chosen order and stops
/// early once the accumulation is empty.
pub(crate) struct JoinState {
    iso: MatchIso,
    /// Rows carry the edges their constituent walks used so the
    /// edge-isomorphic mode (§7.1) can reject overlaps across patterns.
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
    /// semi-join key-set extraction of sideways information passing.
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
    /// join graph). With non-empty keys bound on both sides the merge
    /// builds a hash table on the smaller side and probes with the other;
    /// otherwise (no keys: a cartesian step, or the baseline's
    /// declaration-order join) it scans all pairs. Both paths run the
    /// same per-pair admission check ([`JoinState::try_merge`]), so
    /// results — including the edge-isomorphism overlap rejection and
    /// path-variable bindings — are identical; the hash table only skips
    /// pairs that would fail the equi-join anyway. Output row order is the nested loop's
    /// (accumulated row outer, stage binding inner) in either case.
    pub(crate) fn merge_stage(
        &mut self,
        expr: &PathPatternExpr,
        bindings: &[PathBinding],
        keys: &[String],
    ) {
        // Join keys are unconditional singletons, so they are bound on
        // both sides of every candidate pair; verify that before trusting
        // the hash path (a missing key would make strict key equality
        // drop pairs the nested loop admits).
        let hashable = !keys.is_empty()
            && self
                .rows
                .iter()
                .all(|(row, _)| keys.iter().all(|k| row.values.contains_key(k)))
            && bindings
                .iter()
                .all(|pb| keys.iter().all(|k| pb.bindings.contains_key(k)));
        if !hashable {
            let mut next = Vec::new();
            for (row, used) in &self.rows {
                for pb in bindings {
                    if let Some(out) = self.try_merge(row, used, pb, expr) {
                        next.push(out);
                    }
                }
            }
            self.rows = next;
            return;
        }

        let row_key = |row: &MatchRow| -> Vec<BoundValue> {
            keys.iter().map(|k| row.values[k].clone()).collect()
        };
        let binding_key = |pb: &PathBinding| -> Vec<BoundValue> {
            keys.iter().map(|k| pb.bindings[k].clone()).collect()
        };

        let mut next = Vec::new();
        if self.rows.len() < bindings.len() {
            // Build on the accumulated rows, probe with the stage
            // bindings, then restore nested-loop output order by sorting
            // the surviving (row, binding) index pairs.
            let mut table: HashMap<Vec<BoundValue>, Vec<usize>> = HashMap::new();
            for (i, (row, _)) in self.rows.iter().enumerate() {
                table.entry(row_key(row)).or_default().push(i);
            }
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for (j, pb) in bindings.iter().enumerate() {
                if let Some(is) = table.get(&binding_key(pb)) {
                    pairs.extend(is.iter().map(|&i| (i, j)));
                }
            }
            pairs.sort_unstable();
            for (i, j) in pairs {
                let (row, used) = &self.rows[i];
                if let Some(out) = self.try_merge(row, used, &bindings[j], expr) {
                    next.push(out);
                }
            }
        } else {
            // Build on the stage bindings (bucket entries keep declaration
            // order), probe with the accumulated rows.
            let mut table: HashMap<Vec<BoundValue>, Vec<usize>> = HashMap::new();
            for (j, pb) in bindings.iter().enumerate() {
                table.entry(binding_key(pb)).or_default().push(j);
            }
            for (row, used) in &self.rows {
                if let Some(js) = table.get(&row_key(row)) {
                    for &j in js {
                        if let Some(out) = self.try_merge(row, used, &bindings[j], expr) {
                            next.push(out);
                        }
                    }
                }
            }
        }
        self.rows = next;
    }

    /// Admits one (accumulated row, stage binding) pair: the §7.1
    /// edge-isomorphism overlap check, the per-variable equi-join on all
    /// shared names, and the path-variable binding.
    fn try_merge(
        &self,
        row: &MatchRow,
        used: &[property_graph::EdgeId],
        pb: &PathBinding,
        expr: &PathPatternExpr,
    ) -> Option<(MatchRow, Vec<property_graph::EdgeId>)> {
        if self.iso == MatchIso::EdgeIsomorphic {
            // The walk itself must not repeat an edge, nor reuse one
            // matched by another path pattern.
            if !pb.path.is_trail() || pb.path.edges().iter().any(|e| used.contains(e)) {
                return None;
            }
        }
        let mut merged = row.clone();
        for (var, val) in &pb.bindings {
            match merged.values.get(var) {
                Some(existing) if existing != val => return None,
                Some(_) => {}
                None => {
                    merged.values.insert(var.clone(), val.clone());
                }
            }
        }
        if let Some(pv) = &expr.path_var {
            merged
                .values
                .insert(pv.clone(), BoundValue::Path(pb.path.clone()));
        }
        let mut used = used.to_vec();
        used.extend_from_slice(pb.path.edges());
        Some((merged, used))
    }

    /// Applies the final `WHERE` postfilter and produces the result set.
    /// `params` supplies the values of any `$name` placeholders in the
    /// postfilter (and in prepared `EXISTS` subplans).
    pub(crate) fn finish(
        self,
        graph: &PropertyGraph,
        normalized: &GraphPattern,
        opts: &EvalOptions,
        exists: &ExistsPlans,
        params: &Params,
    ) -> MatchSet {
        let mut rows: Vec<MatchRow> = self.rows.into_iter().map(|(r, _)| r).collect();
        if let Some(post) = &normalized.where_clause {
            // EXISTS subqueries are evaluated once per distinct subpattern
            // and joined against each row on shared variable names.
            let cache: RefCell<HashMap<GraphPattern, Option<MatchSet>>> =
                RefCell::new(HashMap::new());
            rows.retain(|row| {
                let env = RowEnv {
                    graph,
                    row,
                    opts,
                    exists,
                    params,
                    cache: &cache,
                };
                filter::truth(graph, &env, post) == Some(true)
            });
        }
        MatchSet { rows }
    }
}

/// A host-side projection environment: variable lookups from a joined
/// result row plus `$name` lookups from the execution's parameter
/// bindings. The GQL `RETURN`/`ORDER BY` and SQL/PGQ `COLUMNS`
/// projections evaluate through one of these, so host expressions see
/// exactly the values the pattern predicates saw.
pub struct RowParamEnv<'a> {
    /// The joined result row providing variable bindings.
    pub row: &'a MatchRow,
    /// The execution's parameter bindings.
    pub params: &'a Params,
}

impl filter::Env for RowParamEnv<'_> {
    fn lookup(&self, var: &str) -> Option<BoundValue> {
        self.row.get(var).cloned()
    }

    fn param(&self, name: &str) -> Option<property_graph::Value> {
        self.params.get(name).cloned()
    }
}

/// Postfilter environment: row lookups plus `EXISTS` subquery support
/// with per-subpattern memoization.
struct RowEnv<'a> {
    graph: &'a PropertyGraph,
    row: &'a MatchRow,
    opts: &'a EvalOptions,
    exists: &'a ExistsPlans,
    params: &'a Params,
    cache: &'a RefCell<HashMap<GraphPattern, Option<MatchSet>>>,
}

impl filter::Env for RowEnv<'_> {
    fn lookup(&self, var: &str) -> Option<BoundValue> {
        self.row.get(var).cloned()
    }

    fn param(&self, name: &str) -> Option<property_graph::Value> {
        self.params.get(name).cloned()
    }

    fn exists(&self, pattern: &GraphPattern) -> Option<bool> {
        let mut cache = self.cache.borrow_mut();
        let sub = cache.entry(pattern.clone()).or_insert_with(|| {
            // Prefer the subplan prepared at prepare time; fall back to a
            // one-shot prepare for callers (the baseline) without one.
            // Either way the *outer* execution's bindings flow in — the
            // enclosing plan's bind-time validation covered the
            // subpattern's parameters too.
            match self.exists.get(pattern) {
                Some(subplan) => subplan.execute_bound(self.graph, self.params).ok(),
                None => prepare(pattern, self.opts)
                    .ok()
                    .and_then(|q| q.execute_bound(self.graph, self.params).ok()),
            }
        });
        let sub = sub.as_ref()?;
        // Correlation: a subquery match must agree with the enclosing row
        // on every variable the two share.
        Some(sub.rows.iter().any(|subrow| {
            subrow
                .values
                .iter()
                .all(|(var, val)| match self.row.get(var) {
                    Some(outer) => outer == val,
                    None => true,
                })
        }))
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
