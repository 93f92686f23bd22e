//! Compiled query plans — the prepare-once / execute-many split.
//!
//! [`prepare`] lowers a [`GraphPattern`] into a flat, inspectable
//! [`ExecutablePlan`] wrapped in a [`PreparedQuery`] that can be executed
//! against any number of graphs without repeating the per-query work. The
//! lowering pipeline mirrors the §6 execution model, but runs it once:
//!
//! 1. **Mode rewrite** — under [`MatchMode::GsqlDefault`], unbounded
//!    quantifiers with neither selector nor restrictor implicitly receive
//!    `ALL SHORTEST` (§3);
//! 2. **Normalize** (§6.2) — concatenations are made consistent and every
//!    anonymous element pattern receives a fresh variable;
//! 3. **Analyze** (§4.4, §4.6, §5) — variables are classified, the join
//!    discipline is enforced, and non-terminating patterns are rejected;
//! 4. **Compile** — each path pattern is compiled straight into a flat
//!    program (one `PathStage` per comma-separated path pattern), and its
//!    search mode (exhaustive, selector-driven dominance-pruned search, or
//!    the shortest-path kernel for kernel-eligible `ANY` / `ANY SHORTEST`
//!    stages) is resolved graph-independently;
//! 5. **Join / select / filter stages** — the explicit join graph over
//!    shared unconditional singleton variables is recorded, selectors are
//!    attached per stage, and every `EXISTS` subquery of the final `WHERE`
//!    postfilter is recursively prepared into its own subplan.
//!
//! Executing the plan then only performs the graph-dependent work: the
//! [`cost`] model consults the graph's statistics catalog to order the
//! stages (cheapest connected stage first), each stage runs its
//! product-automaton search from its start set (an index probe, a label
//! scan, the accumulated join's key nodes, or all nodes — see
//! `access`), §6.5 reduction/deduplication, and §5.1
//! selector application, the per-stage results merge through hash joins
//! on the plan's join keys (see `eval::JoinState`), and the
//! postfilter runs last. Stages whose accumulated join is already empty
//! are skipped entirely.
//!
//! [`eval::evaluate`](crate::eval::evaluate) is a thin wrapper over
//! `prepare(..)?.execute(..)`. The host languages (the GQL session,
//! SQL/PGQ `GRAPH_TABLE`, the server, the CLI REPL) compile a statement
//! into one [`Statement`] — the [`PreparedQuery`] plus the [`Projection`]
//! of its `RETURN` or `COLUMNS` clause — and cache it in a
//! [`SharedPlanLru`] keyed by `(query text, EvalOptions)` to skip
//! straight to execution.
//!
//! The plan structure is deliberately flat and inspectable (see the
//! [`ExecutablePlan`] `Display` impl and [`PreparedQuery::explain_for`],
//! surfaced as `--explain` in the CLI).
//!
//! With [`EvalOptions::threads`] ≥ 2 (or auto-detected parallelism on a
//! large enough graph), the same stage loop cuts each stage's start set
//! into morsels drained by scoped workers (see `eval::pool`). The stage
//! is a barrier: its morsels are spliced back in morsel order and merged
//! before the next stage's join key sets are computed, so the result
//! and the work done are those of the sequential run.

mod access;
pub mod cache;
pub mod cost;
mod statement;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use property_graph::{NodeId, PropertyGraph};

use crate::analysis::{analyze, collect_exists, Analysis, VarClass};
use crate::ast::{Expr, GraphPattern, PathPattern, PathPatternExpr, Restrictor, Selector};
use crate::binding::{MatchSet, PathBinding};
use crate::error::{Error, Result};
use crate::eval::flat::{collect_vars, FlatMatcher, FlatProgram, PruneMode};
use crate::eval::kernel::{KernelPlan, ShortestKernel};
use crate::eval::{
    pool, selector, EvalOptions, ExecProfile, JoinState, MatchMode, StageCounters, WorkCounts,
};
use crate::normalize::normalize;
use crate::params::{value_type_name, ParamType, Params};
use access::StartPattern;

pub use cache::{CacheStats, PlanLru, SharedPlanLru, DEFAULT_PLAN_CACHE_CAPACITY};
pub use cost::{CostReport, CostStep, JoinAlgo, StartSet};
pub use statement::{Projection, Statement};

/// The join's node sets for one stage (sideways information passing):
/// for each node-typed join key the stage shares with the stages merged
/// before it, the distinct nodes the accumulated rows bind it to. The
/// start variable's set is the stage's start set; the search checks the
/// other entries at `NodeTest`, where a node outside its set can never
/// join and is cut immediately.
pub(crate) type JoinKeyNodes = BTreeMap<String, BTreeSet<NodeId>>;

/// Lowers `pattern` into an executable plan under `opts`.
///
/// All per-query work — mode rewriting, normalization, static analysis,
/// flat-program compilation, join-graph construction, and `EXISTS`
/// subplanning — happens here, exactly once. The result is
/// graph-independent: one [`PreparedQuery`] may be executed against any
/// number of graphs, in any order, with independent results.
///
/// ```
/// use gpml_core::ast::*;
/// use gpml_core::eval::EvalOptions;
/// use gpml_core::plan::prepare;
/// use property_graph::{Endpoints, PropertyGraph};
///
/// // MATCH (x)-[e]->(y): prepare once ...
/// let pattern = GraphPattern::single(PathPattern::concat(vec![
///     PathPattern::Node(NodePattern::var("x")),
///     PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
///     PathPattern::Node(NodePattern::var("y")),
/// ]));
/// let query = prepare(&pattern, &EvalOptions::default())?;
///
/// // ... execute against as many graphs as you like.
/// let mut g = PropertyGraph::new();
/// let a = g.add_node("a", ["N"], []);
/// let b = g.add_node("b", ["N"], []);
/// g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
/// assert_eq!(query.execute(&g)?.len(), 1);
/// assert_eq!(query.plan().stage_count(), 1);
/// # Ok::<(), gpml_core::Error>(())
/// ```
pub fn prepare(pattern: &GraphPattern, opts: &EvalOptions) -> Result<PreparedQuery> {
    let mut pattern = pattern.clone();
    if opts.mode == MatchMode::GsqlDefault {
        apply_gsql_default(&mut pattern);
    }
    let normalized = normalize(&pattern);
    let analysis = analyze(&normalized)?;

    let mut stages = Vec::with_capacity(normalized.paths.len());
    for expr in &normalized.paths {
        stages.push(PathStage::lower(expr));
    }

    // The explicit join graph: shared *unconditional singleton* variables
    // between stage pairs are the only implicit equi-join keys the
    // analysis admits across path patterns (§4.6).
    let mut joins = Vec::new();
    for i in 0..stages.len() {
        for j in i + 1..stages.len() {
            let on: Vec<String> = stages[i]
                .vars
                .intersection(&stages[j].vars)
                .filter(|v| {
                    analysis
                        .var(v)
                        .is_some_and(|info| info.class == VarClass::Singleton)
                })
                .cloned()
                .collect();
            if !on.is_empty() {
                joins.push(JoinEdge {
                    left: i,
                    right: j,
                    on,
                });
            }
        }
    }

    let exists = prepare_exists(&normalized, opts)?;

    // Parameter slots: every `$name` placeholder in any predicate of the
    // normalized pattern (prefilters, the postfilter, and EXISTS
    // subpatterns), together with the value-type expectations its usage
    // contexts imply. The slots are what makes the plan a reusable
    // *skeleton*: executions bind values against them without touching
    // the compiled stages.
    let mut param_slots = BTreeMap::new();
    collect_graph_params(&normalized, &mut param_slots);

    Ok(PreparedQuery {
        opts: opts.clone(),
        plan: Arc::new(ExecutablePlan {
            normalized,
            analysis,
            stages,
            joins,
            exists,
            params: param_slots,
        }),
    })
}

// ---------------------------------------------------------------------------
// Parameter slot collection
// ---------------------------------------------------------------------------

/// The slot map: parameter name → the type expectations its usages imply.
pub(crate) type ParamSlots = BTreeMap<String, BTreeSet<ParamType>>;

pub(crate) fn collect_graph_params(gp: &GraphPattern, out: &mut ParamSlots) {
    for p in &gp.paths {
        p.pattern.walk(&mut |p| {
            let predicate = match p {
                PathPattern::Node(n) => &n.predicate,
                PathPattern::Edge(e) => &e.predicate,
                PathPattern::Paren { predicate, .. } => predicate,
                _ => &None,
            };
            if let Some(pred) = predicate {
                collect_expr_params(pred, out);
            }
            true
        });
    }
    if let Some(post) = &gp.where_clause {
        collect_expr_params(post, out);
    }
}

/// Records every `$name` in `e` into `out`, inferring type expectations
/// from usage: arithmetic operands must be numbers, and a comparison
/// against a literal expects the literal's type. `EXISTS` subqueries
/// share the enclosing statement's parameters.
pub(crate) fn collect_expr_params(e: &Expr, out: &mut ParamSlots) {
    fn note(out: &mut ParamSlots, name: &str, t: Option<ParamType>) {
        let entry = out.entry(name.to_owned()).or_default();
        if let Some(t) = t {
            entry.insert(t);
        }
    }
    e.walk(&mut |e| match e {
        Expr::Parameter(name) => note(out, name, None),
        Expr::Cmp(_, a, b) => {
            // A comparison against a literal pins the parameter's type.
            if let (Expr::Parameter(name), Expr::Literal(v))
            | (Expr::Literal(v), Expr::Parameter(name)) = (a.as_ref(), b.as_ref())
            {
                note(out, name, literal_expectation(v));
            }
        }
        Expr::Arith(_, a, b) => {
            for side in [a.as_ref(), b.as_ref()] {
                if let Expr::Parameter(name) = side {
                    note(out, name, Some(ParamType::Number));
                }
            }
        }
        Expr::Exists(gp) => collect_graph_params(gp, out),
        _ => {}
    });
}

fn literal_expectation(v: &property_graph::Value) -> Option<ParamType> {
    use property_graph::Value;
    match v {
        Value::Int(_) | Value::Float(_) => Some(ParamType::Number),
        Value::Str(_) => Some(ParamType::Text),
        Value::Bool(_) => Some(ParamType::Boolean),
        Value::Null => None,
    }
}

/// Validates `params` against the slot map: every slot bound, no extra
/// bindings, every value compatible with its slot's inferred type
/// expectations.
pub(crate) fn check_params(slots: &ParamSlots, params: &Params) -> Result<()> {
    for (name, expects) in slots {
        let Some(value) = params.get(name) else {
            return Err(Error::UnboundParameter { name: name.clone() });
        };
        for t in expects {
            if !t.admits(value) {
                return Err(Error::ParameterTypeMismatch {
                    name: name.clone(),
                    expected: t.describe(),
                    got: value_type_name(value),
                });
            }
        }
    }
    for name in params.names() {
        if !slots.contains_key(name) {
            return Err(Error::UnusedParameter {
                name: name.to_owned(),
            });
        }
    }
    Ok(())
}

/// A compiled query: an [`ExecutablePlan`] plus the options it was
/// prepared under. Execute it against any number of graphs. The plan is
/// shared, so a clone (a plan-cache hit) is a reference-count bump.
#[derive(Clone)]
pub struct PreparedQuery {
    opts: EvalOptions,
    plan: Arc<ExecutablePlan>,
}

impl PreparedQuery {
    /// Runs the plan against `graph`.
    ///
    /// Only graph-dependent work happens here; the compiled stages are
    /// reused unchanged, and executions against different graphs are
    /// fully independent. Per execution, the cost model consults the
    /// graph's statistics catalog to pick the stage order (cheapest
    /// connected stage first — see [`cost`]), each stage's bindings are
    /// merged into the accumulated rows through a hash join on the plan's
    /// join keys (nested loop when there are none), and the remaining
    /// stages are skipped entirely once the accumulation is empty. Results
    /// are identical to declaration-order nested-loop execution up to row
    /// order.
    pub fn execute(&self, graph: &PropertyGraph) -> Result<MatchSet> {
        self.execute_with(graph, &Params::new())
    }

    /// Runs the plan against `graph` with `params` bound to the query's
    /// `$name` placeholders — the *bind* step of prepare → bind →
    /// execute.
    ///
    /// Bindings are validated up front against the plan's parameter
    /// slots: a declared-but-unbound parameter raises
    /// [`Error::UnboundParameter`], a binding no placeholder consumes
    /// raises [`Error::UnusedParameter`], and a value contradicting the
    /// parameter's usage (e.g. a string where arithmetic needs a number)
    /// raises [`Error::ParameterTypeMismatch`]. The compiled stages are
    /// shared by every binding; with the statistics catalog available,
    /// stage ordering re-estimates predicate selectivity using the bound
    /// values, so the optimizer benefits from constants it could not see
    /// at prepare time.
    pub fn execute_with(&self, graph: &PropertyGraph, params: &Params) -> Result<MatchSet> {
        check_params(&self.plan.params, params)?;
        self.execute_bound(graph, params)
    }

    /// [`Self::execute_with`], additionally tallying per-stage execution
    /// counters (nodes expanded, edges traversed, rows pruned by the
    /// join's key sets) into `profile`.
    ///
    /// Create the profile with [`ExecProfile::new`] sized to
    /// [`ExecutablePlan::stage_count`]; its slots are indexed by
    /// *declaration* stage index, matching the EXPLAIN rendering, however
    /// the cost model reorders execution. Counters are cumulative across
    /// executions sharing a profile.
    pub fn execute_with_profile(
        &self,
        graph: &PropertyGraph,
        params: &Params,
        profile: &ExecProfile,
    ) -> Result<MatchSet> {
        check_params(&self.plan.params, params)?;
        self.execute_inner(graph, params, Some(profile))
    }

    /// The unvalidated execution path shared by [`Self::execute_with`]
    /// and prepared `EXISTS` subplans (whose parameters were validated as
    /// part of the enclosing plan's slot set).
    pub(crate) fn execute_bound(&self, graph: &PropertyGraph, params: &Params) -> Result<MatchSet> {
        self.execute_inner(graph, params, None)
    }

    fn execute_inner(
        &self,
        graph: &PropertyGraph,
        params: &Params,
        profile: Option<&ExecProfile>,
    ) -> Result<MatchSet> {
        let schedule = cost::schedule(&self.plan, graph, params, &self.opts);
        let threads = self.opts.effective_threads(graph.node_count());
        let mut join = JoinState::new(self.opts.isomorphism);
        for step in &schedule.steps {
            if join.is_empty() {
                // A cheaper stage already matched nothing: every later
                // merge is empty, so the remaining searches are pure
                // cost (a skipped stage can no longer raise its
                // resource-limit error).
                break;
            }
            let stage = &self.plan.stages[step.stage];
            // Sideways information passing: the distinct nodes the
            // accumulated rows bind each node-typed join key to. The seed
            // variable's set is the stage's start set; the search checks
            // the others at `NodeTest`, so bindings that cannot join are
            // never generated.
            let seeds = step.seed.and_then(|v| join.distinct_key_nodes(v));
            let key_nodes: JoinKeyNodes = step
                .filters
                .iter()
                .filter_map(|&k| Some((k.to_owned(), join.distinct_key_nodes(k)?)))
                .collect();
            let counters = profile.and_then(|p| p.stage(step.stage));
            let started = counters.map(|_| std::time::Instant::now());
            // A seeded stage starts only where its join key can land; the
            // access-path starts it skips are counted as pruned.
            let starts = match seeds {
                Some(seeds) => {
                    if let Some(c) = counters {
                        let skipped = step.access.len(graph).saturating_sub(seeds.len());
                        c.add(WorkCounts {
                            rows_pruned: skipped as u64,
                            ..WorkCounts::default()
                        });
                    }
                    seeds.into_iter().collect()
                }
                None => step.access.nodes(graph),
            };
            let filters = (!key_nodes.is_empty()).then_some(&key_nodes);
            let search = |starts: &[property_graph::NodeId]| {
                stage.matches_from(graph, &self.opts, params, starts, filters, counters)
            };
            let raw = if threads <= 1 {
                search(&starts)?
            } else {
                // The stage barrier: every morsel of this stage's start set
                // is searched before its bindings merge, and the results
                // are spliced in morsel order, so the next stage's key
                // sets see exactly the sequential accumulation.
                let morsels = pool::chunks(starts.len(), threads * pool::MORSELS_PER_THREAD);
                let mut raw = Vec::new();
                for part in pool::map_units(threads, morsels.len(), |u| {
                    search(&starts[morsels[u].clone()])
                }) {
                    raw.append(&mut part?);
                }
                raw
            };
            let bindings = stage.finish_bindings(graph, &self.opts, raw)?;
            if let (Some(c), Some(t)) = (counters, started) {
                c.add_micros(t.elapsed().as_micros() as u64);
            }
            join.merge_stage(&stage.expr, &bindings, &step.keys);
        }
        Ok(join.finish(graph, &self.plan.normalized, &self.plan.exists, params))
    }

    /// The lowered plan (inspect or `Display` it for an EXPLAIN view).
    pub fn plan(&self) -> &ExecutablePlan {
        &self.plan
    }

    /// Registers the `$name` parameters of a host-side expression (a
    /// `RETURN` item, `ORDER BY` key, or `COLUMNS` projection) as
    /// additional slots of this plan, so bind-time validation covers the
    /// whole statement — not just the pattern — and a binding consumed
    /// only by a projection is not misreported as unused. Copies the plan
    /// first if a clone of this query shares it.
    pub(crate) fn declare_params_in(&mut self, expr: &Expr) {
        collect_expr_params(expr, &mut Arc::make_mut(&mut self.plan).params);
    }

    /// The options the query was prepared under.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// The EXPLAIN rendering of the plan (same as `format!("{}", q.plan())`).
    pub fn explain(&self) -> String {
        self.plan.to_string()
    }

    /// The cost-based execution decision for this query over `graph`:
    /// per-stage cardinality estimates, the chosen stage order, and the
    /// join algorithm per step — computed exactly as
    /// [`PreparedQuery::execute`] would.
    pub fn cost_report(&self, graph: &PropertyGraph) -> CostReport {
        self.cost_report_with(graph, &Params::new())
    }

    /// [`Self::cost_report`] with parameter bindings: predicate constants
    /// unknown at prepare time are re-estimated from the bound values, so
    /// the report shows the stage order an `execute_with` call with the
    /// same bindings would use.
    pub fn cost_report_with(&self, graph: &PropertyGraph, params: &Params) -> CostReport {
        CostReport::compute(&self.plan, graph, &self.opts, params)
    }

    /// The EXPLAIN rendering annotated with the cost model's decisions
    /// for `graph` (the plan itself stays graph-independent; only the
    /// annotation needs statistics).
    pub fn explain_for(&self, graph: &PropertyGraph) -> String {
        format!("{}\n{}", self.plan, self.cost_report(graph))
    }

    /// [`Self::explain_for`] under the given parameter bindings.
    pub fn explain_with(&self, graph: &PropertyGraph, params: &Params) -> String {
        format!("{}\n{}", self.plan, self.cost_report_with(graph, params))
    }
}

/// The flat, inspectable result of lowering a graph pattern: one
/// flat-program stage per path pattern, the explicit join graph over
/// shared singleton variables, and the selector/postfilter stages.
#[derive(Clone)]
pub struct ExecutablePlan {
    /// The normalized pattern the stages were compiled from.
    pub(crate) normalized: GraphPattern,
    /// Variable classification (kinds, singleton/conditional/group).
    pub(crate) analysis: Analysis,
    /// One compiled stage per path pattern, in declaration order.
    pub(crate) stages: Vec<PathStage>,
    /// Cross-stage equi-join keys (shared unconditional singletons).
    ///
    /// Consumed three ways: EXPLAIN shows them, the [`cost`] reorderer
    /// keeps its greedy order connected along them, and the executor hash
    /// joins on them (the per-pair merge still re-checks every shared
    /// binding, so the keys are a filter, never a semantic widening).
    pub(crate) joins: Vec<JoinEdge>,
    /// Prepared subplans for the postfilter's `EXISTS` subqueries.
    pub(crate) exists: ExistsPlans,
    /// Parameter slots: every `$name` the statement consumes, with the
    /// type expectations inferred from its usage contexts. Executions
    /// bind values against these; the compiled stages never change.
    pub(crate) params: ParamSlots,
}

impl ExecutablePlan {
    /// Number of compiled path stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Names of the `$name` parameter slots this plan declares, in
    /// sorted order.
    pub fn param_names(&self) -> impl Iterator<Item = &str> {
        self.params.keys().map(String::as_str)
    }

    /// The variable analysis computed at prepare time.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Cross-stage join keys as `(left stage, right stage, variables)`.
    pub fn join_edges(&self) -> impl Iterator<Item = (usize, usize, &[String])> {
        self.joins
            .iter()
            .map(|j| (j.left, j.right, j.on.as_slice()))
    }

    /// The flat programs of all stages, in declaration order.
    pub fn stage_programs(&self) -> Vec<&FlatProgram> {
        self.stages.iter().map(|s| &s.prog).collect()
    }

    /// Whether one execution over `graph` under `params` is a point
    /// lookup: work under a fixed bound, whatever the size of the graph,
    /// and a decision that costs no more than that bound. That holds
    /// when
    ///
    /// - the plan has one stage and no `EXISTS` subplan;
    /// - the stage's pattern has no quantifier and no `?`, so it consumes
    ///   at most `k` edges, `k` its number of edge patterns;
    /// - `graph`'s node index is already built (this check never builds
    ///   it) and the stage's start resolves, exactly as the execution
    ///   will resolve it, to an index probe naming at most one node;
    /// - the walks of 1 to `k` steps out of that node, in any direction
    ///   and over any label, number at most [`POINT_LOOKUP_WALKS`].
    ///
    /// Every partial match the search extends is one of those walks, and
    /// every result row ends one, so both the work and the rows are
    /// bounded by the constant, not by the start node's degree.
    pub fn is_point_lookup(&self, graph: &PropertyGraph, params: &Params) -> bool {
        let [stage] = self.stages.as_slice() else {
            return false;
        };
        let (mut fixed, mut hops) = (true, 0);
        stage.expr.pattern.walk(&mut |p| {
            fixed &= !matches!(
                p,
                PathPattern::Quantified { .. } | PathPattern::Questioned(_)
            );
            hops += usize::from(matches!(p, PathPattern::Edge(_)));
            fixed
        });
        if !fixed || !self.exists.is_empty() || !graph.has_index() {
            return false;
        }
        match stage.start.resolve(graph, params) {
            access::AccessPath::Index { nodes: [], .. } => true,
            access::AccessPath::Index { nodes: [n], .. } => {
                let mut budget = POINT_LOOKUP_WALKS;
                walks_within(graph, *n, hops, &mut budget)
            }
            _ => false,
        }
    }
}

/// The most walks a [point lookup](ExecutablePlan::is_point_lookup) may
/// take. Matching and projecting one walk costs 1.4–2 µs in process
/// (release build, 2-core x86_64, stars of degree 10 to 10 000), so 64
/// walks cost the same order as handing the request to a worker and
/// back costs the server (≈60 µs).
pub const POINT_LOOKUP_WALKS: usize = 64;

/// Whether the walks of 1 to `hops` steps out of `n` number at most
/// `budget`, spending it as they are counted: each node visited costs
/// one degree read, and the count stops once the budget is spent, so the
/// check itself reads at most `budget + 1` degrees.
fn walks_within(graph: &PropertyGraph, n: NodeId, hops: usize, budget: &mut usize) -> bool {
    if hops == 0 {
        return true;
    }
    let steps = graph.steps(n);
    let Some(left) = budget.checked_sub(steps.len()) else {
        return false;
    };
    *budget = left;
    steps
        .iter()
        .all(|s| walks_within(graph, s.to, hops - 1, budget))
}

/// One compiled path pattern: its flat program, resolved search mode,
/// and the post-pass its bindings take before they join.
#[derive(Clone)]
pub(crate) struct PathStage {
    /// The normalized pattern (kept for the graph-dependent edge bound
    /// and for EXPLAIN rendering).
    pub(crate) expr: PathPatternExpr,
    /// The pattern compiled into the flat transition-array IR — what
    /// executes.
    pub(crate) prog: FlatProgram,
    /// Search mode, resolved graph-independently at prepare time.
    pub(crate) prune: PruneMode,
    /// Set for kernel-eligible stages: they run on the shortest-path
    /// kernel instead of the interpreter (see `eval::kernel`).
    pub(crate) kernel: Option<KernelPlan>,
    /// Named (non-anonymous) variables this stage binds.
    pub(crate) vars: BTreeSet<String>,
    /// The start node pattern, read once for the access-path choice.
    pub(crate) start: StartPattern,
    /// What [`PathStage::finish_bindings`] does after reduction, fixed
    /// by the search the stage runs.
    pub(crate) post: PostPass,
}

/// A stage's post-pass: how its reduced raw bindings become its result
/// (§6.5 deduplication and §5.1 selection, where they can change it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PostPass {
    /// Deduplicate, then apply the stage's selector if it has one.
    Dedup,
    /// The shortest-path kernel's output: one canonical walk per
    /// `(start, end)` partition, so nothing is duplicated and every
    /// selector the kernel runs (`ANY`, `ANY SHORTEST`) keeps them all.
    /// Sorting by endpoint pair gives the selector's partition order.
    SortByEndpoints,
}

impl PathStage {
    /// Compiles one normalized path pattern into a stage. The pattern has
    /// passed [`analyze`], so every unbounded quantifier is covered.
    pub(crate) fn lower(expr: &PathPatternExpr) -> PathStage {
        let prog = FlatProgram::compile(&expr.pattern);
        let selector_groups = expr.selector.as_ref().and_then(selector::length_groups);
        let prune = resolve_prune(
            has_unbounded(&expr.pattern),
            expr.restrictor,
            selector_groups,
        );
        let mut var_list = Vec::new();
        collect_vars(&expr.pattern, &mut var_list);
        let mut vars: BTreeSet<String> = var_list.into_iter().map(|(v, _)| v).collect();
        if let Some(pv) = &expr.path_var {
            vars.insert(pv.clone());
        }
        let kernel = KernelPlan::for_stage(expr, &prog);
        let post = match kernel {
            Some(_) => PostPass::SortByEndpoints,
            None => PostPass::Dedup,
        };
        PathStage {
            expr: expr.clone(),
            kernel,
            prog,
            prune,
            vars,
            start: StartPattern::of(&expr.pattern),
            post,
        }
    }

    /// The raw product-automaton search seeded from `starts` only — a
    /// stage's start set, or one partition of it. Partitions are
    /// independent (see [`FlatMatcher::run_from`]); splicing their results
    /// in partition order and handing the whole to
    /// [`PathStage::finish_bindings`] reproduces one search over the
    /// whole set. Kernel-eligible stages run on the shortest-path kernel,
    /// which yields only each partition's canonical walk; the rest run on
    /// the interpreter. `filters` carries the join's key node sets other
    /// than the start set (checked at every `NodeTest` the search takes);
    /// a kernel stage always has a selector, so the join never prunes it
    /// and it gets none. `counters` receives the search's execution
    /// tallies when profiling.
    pub(crate) fn matches_from(
        &self,
        graph: &PropertyGraph,
        opts: &EvalOptions,
        params: &Params,
        starts: &[property_graph::NodeId],
        filters: Option<&JoinKeyNodes>,
        counters: Option<&StageCounters>,
    ) -> Result<Vec<PathBinding>> {
        let Some(plan) = &self.kernel else {
            return self.interpret(graph, opts, params, starts, filters, counters);
        };
        debug_assert!(filters.is_none(), "a selector stage is never pruned");
        let k = ShortestKernel::over(graph, &self.prog, plan, &self.expr.pattern, opts, params);
        let out = k.run_from(starts);
        if let Some(c) = counters {
            k.counts.flush(c);
        }
        out
    }

    /// [`Self::matches_from`] on the flat interpreter, whatever the stage.
    /// For a kernel stage the interpreter's walks are deduplicated and
    /// selected here, so the result meets the kernel's one walk per
    /// partition that the stage's post-pass expects.
    pub(crate) fn interpret(
        &self,
        graph: &PropertyGraph,
        opts: &EvalOptions,
        params: &Params,
        starts: &[property_graph::NodeId],
        filters: Option<&JoinKeyNodes>,
        counters: Option<&StageCounters>,
    ) -> Result<Vec<PathBinding>> {
        let m = FlatMatcher::over(
            graph,
            &self.prog,
            &self.expr.pattern,
            self.expr.restrictor,
            self.prune,
            opts,
            params,
        );
        let m = match filters {
            Some(f) => m.with_filters(f),
            None => m,
        };
        let out = m.run_from(starts);
        if let Some(c) = counters {
            m.counts.flush(c);
        }
        match self.post {
            PostPass::Dedup => out,
            PostPass::SortByEndpoints => Ok(self.reduce_select(graph, out?)),
        }
    }

    /// The order-insensitive second half of stage execution: §6.5
    /// reduction, the stage's [`PostPass`], and the endpoint-only
    /// collapse. Both post-passes make the partition splice order
    /// irrelevant: deduplication goes through a sorted set, and the
    /// kernel's bindings are sorted by endpoint pair. Re-checks the
    /// stage-wide [`EvalOptions::max_matches`] limit so partitioned runs
    /// enforce the same total budget as a sequential search.
    pub(crate) fn finish_bindings(
        &self,
        graph: &PropertyGraph,
        opts: &EvalOptions,
        raw: Vec<PathBinding>,
    ) -> Result<Vec<PathBinding>> {
        if raw.len() > opts.max_matches {
            return Err(crate::error::Error::LimitExceeded {
                what: "matches",
                limit: opts.max_matches,
            });
        }

        let mut bindings = match self.post {
            PostPass::Dedup => self.reduce_select(graph, raw),
            PostPass::SortByEndpoints => {
                let mut reduced: Vec<PathBinding> =
                    raw.into_iter().map(PathBinding::reduce).collect();
                reduced.sort_unstable_by_key(|b| (b.path.start(), b.path.end()));
                reduced
            }
        };

        if opts.mode == MatchMode::EndpointOnly {
            // SPARQL property paths: only check path existence between
            // endpoints; group bindings and path identity are unobservable.
            let mut seen = BTreeSet::new();
            bindings.retain(|b| {
                let key = (b.path.start(), b.path.end(), b.alt_marks.clone());
                seen.insert(key)
            });
            // A canonical representative walk is kept so hosts can still
            // expose endpoints.
            for b in &mut bindings {
                b.bindings.retain(|_, v| v.is_singleton());
            }
        }
        Ok(bindings)
    }

    /// Reduction and deduplication (§6.5), then the stage's selector
    /// (§5.1).
    fn reduce_select(&self, graph: &PropertyGraph, raw: Vec<PathBinding>) -> Vec<PathBinding> {
        let deduped: BTreeSet<PathBinding> = raw.into_iter().map(PathBinding::reduce).collect();
        let bindings = deduped.into_iter().collect();
        match &self.expr.selector {
            Some(sel) => selector::apply(graph, sel, bindings),
            None => bindings,
        }
    }
}

/// One edge of the explicit join graph: stages `left` and `right` must
/// agree on the variables in `on`.
#[derive(Clone, Debug)]
pub(crate) struct JoinEdge {
    pub(crate) left: usize,
    pub(crate) right: usize,
    pub(crate) on: Vec<String>,
}

impl JoinEdge {
    /// Whether the edge joins `stage` to one of the `placed` stages.
    pub(crate) fn links(&self, stage: usize, placed: &[usize]) -> bool {
        (self.left == stage && placed.contains(&self.right))
            || (self.right == stage && placed.contains(&self.left))
    }
}

/// Prepared subplans for `EXISTS` subqueries, keyed by their subpattern.
pub(crate) type ExistsPlans = HashMap<GraphPattern, PreparedQuery>;

/// Prepares every `EXISTS` subquery of a normalized pattern's postfilter
/// as its own subplan: the only way the postfilter runs one. Deliberately
/// eager: a one-shot query whose match is empty pays for subplans it
/// never runs, but execute latency stays flat, with no first-row
/// compilation jitter. (Analysis already guaranteed the subpatterns are
/// well-formed.)
pub(crate) fn prepare_exists(normalized: &GraphPattern, opts: &EvalOptions) -> Result<ExistsPlans> {
    let mut exists = ExistsPlans::new();
    if let Some(post) = &normalized.where_clause {
        let mut subs = Vec::new();
        collect_exists(post, &mut subs);
        for sub in subs {
            if !exists.contains_key(sub) {
                exists.insert(sub.clone(), prepare(sub, opts)?);
            }
        }
    }
    Ok(exists)
}

// ---------------------------------------------------------------------------
// GSQL mode rewrite (hoisted from the evaluator)
// ---------------------------------------------------------------------------

/// GSQL default semantics: an unbounded quantifier that has neither a
/// selector nor a restrictor implicitly becomes `ALL SHORTEST` (§3).
fn apply_gsql_default(pattern: &mut GraphPattern) {
    for p in &mut pattern.paths {
        if p.selector.is_none() && p.restrictor.is_none() && has_unbounded(&p.pattern) {
            p.selector = Some(Selector::AllShortest);
        }
    }
}

/// Decides — graph-independently, at prepare time — how a stage's search
/// must prune. `unrestricted_unbounded` says whether the pattern has an
/// unbounded quantifier outside every restrictor paren
/// ([`has_unbounded`]); without a path restrictor, only the selector
/// bounds that search ([`analyze`] rejected every uncovered quantifier).
pub(crate) fn resolve_prune(
    unrestricted_unbounded: bool,
    path_restrictor: Option<Restrictor>,
    selector_groups: Option<usize>,
) -> PruneMode {
    match selector_groups {
        Some(k) if unrestricted_unbounded && path_restrictor.is_none() => {
            PruneMode::ShortestGroups(k)
        }
        _ => PruneMode::Exhaustive,
    }
}

/// True when `p` has an unbounded quantifier outside every restrictor
/// paren: the case that needs a selector or a path restrictor (§5).
pub(crate) fn has_unbounded(p: &PathPattern) -> bool {
    let mut found = false;
    p.walk(&mut |p| {
        match p {
            // A restrictor inside the paren already bounds its subtree.
            PathPattern::Paren {
                restrictor: Some(_),
                ..
            } => return false,
            PathPattern::Quantified { quantifier, .. } => found |= quantifier.is_unbounded(),
            _ => {}
        }
        !found
    });
    found
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

impl fmt::Display for ExecutablePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ExecutablePlan ({} stages)", self.stages.len())?;
        for (i, stage) in self.stages.iter().enumerate() {
            writeln!(f, "  stage {i}: MATCH {}", stage.expr)?;
            // Instruction count and program bytes are the user-facing
            // plan-size metrics.
            let (nodes, edges, quants) = stage.prog.table_sizes();
            writeln!(
                f,
                "    program: {} instr{}, {} bytes, {nodes} node test{}, {edges} edge test{}, {quants} quantifier{}",
                stage.prog.instr_count(),
                plural(stage.prog.instr_count()),
                stage.prog.instr_bytes(),
                plural(nodes),
                plural(edges),
                plural(quants),
            )?;
            let search = match (&stage.kernel, stage.prune) {
                (Some(_), _) => {
                    "shortest-path kernel (one canonical walk per endpoint pair)".to_owned()
                }
                (None, PruneMode::Exhaustive) => "exhaustive (statically bounded)".to_owned(),
                (None, PruneMode::ShortestGroups(k)) => {
                    format!("dominance-pruned BFS ({k} length group{})", plural(k))
                }
            };
            writeln!(f, "    search: {search}")?;
            // The stage's own pipeline, ending in its post-pass.
            let post = match (stage.post, &stage.expr.selector) {
                (PostPass::SortByEndpoints, _) => "sort by endpoint pair",
                (PostPass::Dedup, Some(_)) => "dedup \u{2192} select",
                (PostPass::Dedup, None) => "dedup",
            };
            writeln!(f, "    pipeline: match \u{2192} reduce \u{2192} {post}")?;
            if !stage.vars.is_empty() {
                let vars: Vec<&str> = stage.vars.iter().map(String::as_str).collect();
                writeln!(f, "    binds: {}", vars.join(", "))?;
            }
            for line in stage.prog.to_string().lines() {
                writeln!(f, "      {line}")?;
            }
        }
        if self.joins.is_empty() {
            if self.stages.len() > 1 {
                writeln!(f, "  join: cartesian (no shared singleton variables)")?;
            }
        } else {
            for j in &self.joins {
                writeln!(
                    f,
                    "  join: stage {} \u{2A1D} stage {} on {{{}}}",
                    j.left,
                    j.right,
                    j.on.join(", ")
                )?;
            }
        }
        if !self.params.is_empty() {
            let names: Vec<String> = self.params.keys().map(|n| format!("${n}")).collect();
            writeln!(f, "  params: {}", names.join(", "))?;
        }
        if let Some(post) = &self.normalized.where_clause {
            write!(f, "  postfilter: WHERE {post}")?;
            if !self.exists.is_empty() {
                write!(
                    f,
                    " [{} prepared EXISTS subplan{}]",
                    self.exists.len(),
                    plural(self.exists.len())
                )?;
            }
            writeln!(f)?;
        }
        write!(f, "  pipeline: stages \u{2192} join \u{2192} filter")
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
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

    fn chain(n: usize) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| g.add_node(&format!("n{i}"), ["N"], [("x", Value::Int(i as i64))]))
            .collect();
        for i in 0..n - 1 {
            g.add_edge(
                &format!("e{i}"),
                Endpoints::directed(ids[i], ids[i + 1]),
                ["T"],
                [],
            );
        }
        g
    }

    fn two_stage_pattern() -> GraphPattern {
        GraphPattern {
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
        }
    }

    #[test]
    fn prepare_records_stages_and_join_graph() {
        let q = prepare(&two_stage_pattern(), &EvalOptions::default()).unwrap();
        let plan = q.plan();
        assert_eq!(plan.stage_count(), 2);
        let joins: Vec<_> = plan.join_edges().collect();
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].0, 0);
        assert_eq!(joins[0].1, 1);
        assert_eq!(joins[0].2, ["m".to_owned()]);
    }

    #[test]
    fn execute_many_times_is_stable() {
        let q = prepare(&two_stage_pattern(), &EvalOptions::default()).unwrap();
        let g = chain(5);
        let first = q.execute(&g).unwrap();
        for _ in 0..3 {
            assert_eq!(q.execute(&g).unwrap(), first);
        }
        // 3 two-hop chains in a 5-chain.
        assert_eq!(first.len(), 3);
    }

    #[test]
    fn one_plan_two_graphs_independent_results() {
        let q = prepare(&two_stage_pattern(), &EvalOptions::default()).unwrap();
        let small = chain(3);
        let big = chain(8);
        let a = q.execute(&small).unwrap();
        let b = q.execute(&big).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 6);
        // Re-executing against the first graph is unaffected by the second.
        assert_eq!(q.execute(&small).unwrap(), a);
    }

    #[test]
    fn prepare_rejects_uncovered_unbounded_quantifier() {
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let gp = GraphPattern::single(PathPattern::concat(vec![
            node("a"),
            body.quantified(Quantifier::star()),
            node("b"),
        ]));
        assert!(prepare(&gp, &EvalOptions::default()).is_err());
    }

    #[test]
    fn gsql_mode_rewrite_happens_at_prepare() {
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let gp = GraphPattern::single(PathPattern::concat(vec![
            node("a"),
            body.quantified(Quantifier::plus()),
            node("b"),
        ]));
        let opts = EvalOptions {
            mode: MatchMode::GsqlDefault,
            ..EvalOptions::default()
        };
        let q = prepare(&gp, &opts).unwrap();
        // The implicit ALL SHORTEST is visible in the lowered plan.
        assert!(q.plan().stages[0].expr.selector.is_some());
        let g = chain(4);
        assert!(!q.execute(&g).unwrap().is_empty());
    }

    #[test]
    fn exists_subqueries_are_preplanned() {
        // MATCH (x) WHERE EXISTS { (x)-[e]->(y) }
        let sub =
            GraphPattern::single(PathPattern::concat(vec![node("x"), edge_r("e"), node("y")]));
        let gp = GraphPattern {
            paths: vec![PathPatternExpr::plain(node("x"))],
            where_clause: Some(Expr::Exists(Box::new(sub))),
        };
        let q = prepare(&gp, &EvalOptions::default()).unwrap();
        assert_eq!(q.plan().exists.len(), 1);
        let g = chain(3);
        // n0 and n1 have outgoing edges; n2 does not.
        assert_eq!(q.execute(&g).unwrap().len(), 2);
    }

    #[test]
    fn plan_types_are_send_sync() {
        // A parallel stage search shares these across scoped worker
        // threads; this affirmation is the compile-time audit.
        fn check<T: Send + Sync>() {}
        check::<PropertyGraph>();
        check::<property_graph::GraphStats>();
        check::<PreparedQuery>();
        check::<ExecutablePlan>();
        check::<PathStage>();
        check::<FlatProgram>();
        check::<EvalOptions>();
    }

    #[test]
    fn parallel_execution_matches_sequential_bit_for_bit() {
        let gp = two_stage_pattern();
        let g = chain(300); // above the auto-parallel threshold
        let sequential = prepare(
            &gp,
            &EvalOptions {
                threads: 1,
                ..EvalOptions::default()
            },
        )
        .unwrap()
        .execute(&g)
        .unwrap();
        for threads in [0, 2, 3, 4, 8] {
            let q = prepare(
                &gp,
                &EvalOptions {
                    threads,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
            // Not just the same set: the same rows in the same order.
            assert_eq!(q.execute(&g).unwrap(), sequential, "threads={threads}");
        }
        assert_eq!(sequential.len(), 298);
    }

    #[test]
    fn parallel_early_exit_on_empty_stage() {
        // Stage `(x:Nope)` matches nothing; the other stages' eager
        // results must be discarded without affecting the (empty) result.
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(PathPattern::Node(
                    NodePattern::var("x").with_label(LabelExpr::label("Nope")),
                )),
                PathPatternExpr::plain(PathPattern::concat(vec![
                    node("s"),
                    edge_r("e"),
                    node("t"),
                ])),
            ],
            where_clause: None,
        };
        let g = chain(300);
        for threads in [1, 4] {
            let q = prepare(
                &gp,
                &EvalOptions {
                    threads,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
            assert!(q.execute(&g).unwrap().is_empty(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_execution_propagates_stage_errors() {
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let gp = GraphPattern::single(PathPattern::concat(vec![
            node("a"),
            body.quantified(Quantifier::range(1, Some(6))),
            node("b"),
        ]));
        let opts = EvalOptions {
            threads: 4,
            max_matches: 10, // far fewer than the chain's walks
            ..EvalOptions::default()
        };
        let q = prepare(&gp, &opts).unwrap();
        let g = chain(300);
        assert!(matches!(
            q.execute(&g),
            Err(crate::error::Error::LimitExceeded { .. })
        ));
    }

    /// `MATCH (x WHERE x.x >= $min)` as an AST.
    fn param_pattern() -> GraphPattern {
        GraphPattern::single(PathPattern::Node(NodePattern::var("x").with_predicate(
            Expr::cmp(
                CmpOp::Ge,
                Expr::prop("x", "x"),
                Expr::Parameter("min".into()),
            ),
        )))
    }

    #[test]
    fn prepare_collects_parameter_slots() {
        let q = prepare(&param_pattern(), &EvalOptions::default()).unwrap();
        assert_eq!(q.plan().param_names().collect::<Vec<_>>(), vec!["min"]);
        // Slots show up in EXPLAIN.
        assert!(q.explain().contains("params: $min"), "{}", q.explain());
    }

    #[test]
    fn execute_with_binds_and_rebinding_reuses_the_plan() {
        let q = prepare(&param_pattern(), &EvalOptions::default()).unwrap();
        let g = chain(5); // x property = 0..4
        for min in 0..5 {
            let params = crate::Params::new().with("min", min);
            let got = q.execute_with(&g, &params).unwrap();
            assert_eq!(got.len(), 5 - min as usize, "min={min}");
        }
    }

    #[test]
    fn parameterized_execution_matches_inlined_literal() {
        let literal = GraphPattern::single(PathPattern::Node(
            NodePattern::var("x").with_predicate(Expr::cmp(
                CmpOp::Ge,
                Expr::prop("x", "x"),
                Expr::lit(2),
            )),
        ));
        let g = chain(6);
        let inlined = prepare(&literal, &EvalOptions::default())
            .unwrap()
            .execute(&g)
            .unwrap();
        let q = prepare(&param_pattern(), &EvalOptions::default()).unwrap();
        let bound = q
            .execute_with(&g, &crate::Params::new().with("min", 2))
            .unwrap();
        assert_eq!(bound, inlined);
    }

    #[test]
    fn parameter_binding_errors_are_typed() {
        let q = prepare(&param_pattern(), &EvalOptions::default()).unwrap();
        let g = chain(3);
        // Unbound: plain execute() and an empty map both fail.
        assert_eq!(
            q.execute(&g),
            Err(crate::Error::UnboundParameter { name: "min".into() })
        );
        // Extra binding.
        let extra = crate::Params::new().with("min", 1).with("ghost", 2);
        assert_eq!(
            q.execute_with(&g, &extra),
            Err(crate::Error::UnusedParameter {
                name: "ghost".into()
            })
        );
        // Type mismatch: $min is compared against a numeric literal below.
        let typed = GraphPattern {
            paths: param_pattern().paths,
            where_clause: Some(Expr::cmp(
                CmpOp::Gt,
                Expr::Parameter("min".into()),
                Expr::lit(0),
            )),
        };
        let q = prepare(&typed, &EvalOptions::default()).unwrap();
        let err = q
            .execute_with(&g, &crate::Params::new().with("min", "nope"))
            .unwrap_err();
        assert!(
            matches!(err, crate::Error::ParameterTypeMismatch { ref name, .. } if name == "min"),
            "{err}"
        );
        // NULL is always admissible (three-valued logic handles it).
        let ok = q.execute_with(
            &g,
            &crate::Params::new().with("min", property_graph::Value::Null),
        );
        assert!(ok.unwrap().is_empty());
    }

    #[test]
    fn parameters_reach_exists_subplans() {
        // MATCH (x) WHERE EXISTS { (x)-[e]->(y WHERE y.x >= $min) }
        let sub = GraphPattern::single(PathPattern::concat(vec![
            node("x"),
            edge_r("e"),
            PathPattern::Node(NodePattern::var("y").with_predicate(Expr::cmp(
                CmpOp::Ge,
                Expr::prop("y", "x"),
                Expr::Parameter("min".into()),
            ))),
        ]));
        let gp = GraphPattern {
            paths: vec![PathPatternExpr::plain(node("x"))],
            where_clause: Some(Expr::Exists(Box::new(sub))),
        };
        let q = prepare(&gp, &EvalOptions::default()).unwrap();
        assert_eq!(q.plan().param_names().collect::<Vec<_>>(), vec!["min"]);
        let g = chain(4); // x: 0,1,2,3; edges i -> i+1
        let all = q
            .execute_with(&g, &crate::Params::new().with("min", 0))
            .unwrap();
        assert_eq!(all.len(), 3); // n0..n2 have successors
        let some = q
            .execute_with(&g, &crate::Params::new().with("min", 3))
            .unwrap();
        assert_eq!(some.len(), 1); // only n2 -> n3 satisfies y.x >= 3
    }

    #[test]
    fn parallel_parameterized_execution_matches_sequential() {
        let gp = GraphPattern::single(PathPattern::concat(vec![
            PathPattern::Node(NodePattern::var("s").with_predicate(Expr::cmp(
                CmpOp::Ge,
                Expr::prop("s", "x"),
                Expr::Parameter("min".into()),
            ))),
            edge_r("e"),
            node("t"),
        ]));
        let g = chain(300);
        let params = crate::Params::new().with("min", 7);
        let sequential = prepare(
            &gp,
            &EvalOptions {
                threads: 1,
                ..EvalOptions::default()
            },
        )
        .unwrap()
        .execute_with(&g, &params)
        .unwrap();
        for threads in [2, 4] {
            let q = prepare(
                &gp,
                &EvalOptions {
                    threads,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                q.execute_with(&g, &params).unwrap(),
                sequential,
                "threads={threads}"
            );
        }
        assert_eq!(sequential.len(), 292);
    }

    #[test]
    fn bound_params_sharpen_the_cost_estimate() {
        // Equality against a parameter: unbound → default selectivity,
        // bound → the distinct-value hint, exactly like a literal.
        let eq_param =
            GraphPattern::single(PathPattern::Node(NodePattern::var("x").with_predicate(
                Expr::cmp(CmpOp::Eq, Expr::prop("x", "x"), Expr::Parameter("v".into())),
            )));
        let q = prepare(&eq_param, &EvalOptions::default()).unwrap();
        let g = chain(10); // 10 distinct x values
        let unbound = cost::estimates(q.plan(), g.stats(), &crate::Params::new());
        let bound = cost::estimates(q.plan(), g.stats(), &crate::Params::new().with("v", 3));
        assert!(
            bound[0] < unbound[0],
            "bound {bound:?} must beat unbound {unbound:?}"
        );
        assert!((bound[0] - 1.0).abs() < 1e-9, "{bound:?}");
    }

    /// Two hubs with identical fan-in, but only `h1` reaches the rare
    /// node: the accumulated key set `{h1}` prunes every binding into
    /// `h2` when pushed into the big stage's search.
    fn double_hub() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let h1 = g.add_node("h1", ["Hub"], []);
        let h2 = g.add_node("h2", ["Hub"], []);
        for i in 0..20 {
            let s = g.add_node(&format!("s{i}"), ["Big"], []);
            g.add_edge(&format!("a{i}"), Endpoints::directed(s, h1), ["In"], []);
            g.add_edge(&format!("b{i}"), Endpoints::directed(s, h2), ["In"], []);
        }
        let r = g.add_node("r", ["Rare"], []);
        g.add_edge("out", Endpoints::directed(h1, r), ["Out"], []);
        g
    }

    fn labeled(v: &str, l: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v).with_label(LabelExpr::label(l)))
    }

    fn semi_join_pattern() -> GraphPattern {
        GraphPattern {
            paths: vec![
                PathPatternExpr::plain(PathPattern::concat(vec![
                    labeled("x", "Big"),
                    edge_r("e"),
                    node("h"),
                ])),
                PathPatternExpr::plain(PathPattern::concat(vec![
                    node("h"),
                    edge_r("f"),
                    labeled("y", "Rare"),
                ])),
            ],
            where_clause: None,
        }
    }

    #[test]
    fn semi_join_filtered_execution_matches_the_baseline() {
        let gp = semi_join_pattern();
        let g = double_hub();
        let run = |threads| {
            let opts = EvalOptions {
                threads,
                ..EvalOptions::default()
            };
            prepare(&gp, &opts).unwrap().execute(&g).unwrap()
        };
        let sequential = run(1);
        assert_eq!(sequential.len(), 20);
        for threads in [2, 4] {
            // Same rows in the same order, however many units ran filtered.
            assert_eq!(run(threads), sequential, "threads={threads}");
        }
        let mut want = crate::baseline::evaluate(&g, &gp, &EvalOptions::default())
            .unwrap()
            .rows;
        let mut got = sequential.rows;
        want.sort();
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn profile_counts_semi_join_pruning() {
        for threads in [1, 2, 4] {
            let q = prepare(
                &semi_join_pattern(),
                &EvalOptions {
                    threads,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
            let g = double_hub();
            let profile = ExecProfile::new(q.plan().stage_count());
            let got = q
                .execute_with_profile(&g, &Params::new(), &profile)
                .unwrap();
            assert_eq!(got.len(), 20);
            let (nodes, edges, pruned, instrs, _truncations) = profile.totals();
            assert!(nodes > 0, "start nodes are expanded");
            assert!(edges > 0, "edges are traversed");
            assert!(instrs > 0, "the flat interpreter dispatched instructions");
            // The 20 spoke->h2 bindings die at the h NodeTest instead of
            // surviving to the join, at every thread count.
            assert_eq!(pruned, 20, "threads {threads}: {:?}", profile.totals());
            // Counters are addressed by declaration stage index: the
            // filtered big stage is stage 0 regardless of execution order.
            assert_eq!(profile.stages()[0].rows_pruned(), 20);
            assert_eq!(profile.stages()[1].rows_pruned(), 0);
        }
    }

    #[test]
    fn post_pass_is_fixed_at_lowering() {
        // MATCH ANY SHORTEST (a)-[s]->+(b), ANY SHORTEST TRAIL
        //       (a)-[t]->+(b), (a)-[u]->(c)
        let path = |restrictor, e| PathPatternExpr {
            selector: Some(Selector::AnyShortest),
            restrictor,
            path_var: None,
            pattern: PathPattern::concat(vec![
                node("a"),
                edge_r(e).quantified(Quantifier::plus()),
                node("b"),
            ]),
        };
        let plain =
            PathPatternExpr::plain(PathPattern::concat(vec![node("a"), edge_r("u"), node("c")]));
        let gp = GraphPattern {
            paths: vec![path(None, "s"), path(Some(Restrictor::Trail), "t"), plain],
            where_clause: None,
        };
        let q = prepare(&gp, &EvalOptions::default()).unwrap();
        let stages = &q.plan().stages;
        assert!(stages[0].kernel.is_some());
        assert_eq!(stages[0].post, PostPass::SortByEndpoints);
        assert!(stages[1].kernel.is_none());
        assert_eq!(stages[1].post, PostPass::Dedup);
        assert_eq!(stages[2].post, PostPass::Dedup);
        let text = q.explain();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("    pipeline: "))
            .collect();
        assert_eq!(
            lines,
            [
                "    pipeline: match \u{2192} reduce \u{2192} sort by endpoint pair",
                "    pipeline: match \u{2192} reduce \u{2192} dedup \u{2192} select",
                "    pipeline: match \u{2192} reduce \u{2192} dedup",
            ],
            "{text}"
        );
        assert!(
            text.ends_with("  pipeline: stages \u{2192} join \u{2192} filter"),
            "{text}"
        );
        // Whichever post-pass runs, the answer is the declaration-order
        // baseline's.
        let g = chain(6);
        let mut got = q.execute(&g).unwrap().rows;
        let mut want = crate::baseline::evaluate(&g, &gp, &EvalOptions::default())
            .unwrap()
            .rows;
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    /// Six accounts in a ring of transfers; `a4` and `a5` share the
    /// owner `Twin`, so probing it names two nodes.
    fn accounts() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let owners = ["Scott", "Aretha", "Mike", "Jay", "Twin", "Twin"];
        let ids: Vec<NodeId> = (owners.iter().enumerate())
            .map(|(i, o)| g.add_node(&format!("a{i}"), ["Account"], [("owner", Value::str(*o))]))
            .collect();
        for i in 0..ids.len() {
            let next = ids[(i + 1) % ids.len()];
            g.add_edge(
                &format!("t{i}"),
                Endpoints::directed(ids[i], next),
                ["Transfer"],
                [],
            );
        }
        g
    }

    /// `(x:Account WHERE x.owner = $owner)` followed by `rest`.
    fn lookup(rest: Vec<PathPattern>) -> GraphPattern {
        let start = NodePattern::var("x")
            .with_label(LabelExpr::Label("Account".into()))
            .with_predicate(Expr::cmp(
                CmpOp::Eq,
                Expr::prop("x", "owner"),
                Expr::Parameter("owner".into()),
            ));
        let mut parts = vec![PathPattern::Node(start)];
        parts.extend(rest);
        GraphPattern::single(PathPattern::concat(parts))
    }

    fn transfer(v: &str) -> PathPattern {
        PathPattern::Edge(
            EdgePattern::any(Direction::Right)
                .with_var(v)
                .with_label(LabelExpr::Label("Transfer".into())),
        )
    }

    fn account(v: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v).with_label(LabelExpr::Label("Account".into())))
    }

    fn point_lookup_on(g: &PropertyGraph, gp: &GraphPattern, owner: impl Into<Value>) -> bool {
        let q = prepare(gp, &EvalOptions::default()).unwrap();
        let params = crate::Params::new().with("owner", owner);
        q.plan().is_point_lookup(g, &params)
    }

    /// [`ExecutablePlan::is_point_lookup`] over [`accounts`], its node
    /// index built.
    fn point_lookup(gp: &GraphPattern, owner: impl Into<Value>) -> bool {
        let g = accounts();
        g.nodes_with_label("Account");
        point_lookup_on(&g, gp, owner)
    }

    #[test]
    fn an_unbuilt_index_is_never_built_by_the_check() {
        let gp = lookup(vec![transfer("t"), account("y")]);
        let g = accounts();
        assert!(!point_lookup_on(&g, &gp, "Scott"));
        assert!(!g.has_index());
        g.nodes_with_label("Account");
        assert!(point_lookup_on(&g, &gp, "Scott"));
    }

    #[test]
    fn walks_past_the_budget_are_not_a_point_lookup() {
        // A hub with one transfer to each of `POINT_LOOKUP_WALKS` leaves.
        let mut g = accounts();
        let hub = g.add_node("hub", ["Account"], [("owner", Value::str("Hub"))]);
        for i in 0..POINT_LOOKUP_WALKS {
            let owner = Value::str(format!("Leaf{i}"));
            let leaf = g.add_node(&format!("l{i}"), ["Account"], [("owner", owner)]);
            g.add_edge(
                &format!("h{i}"),
                Endpoints::directed(hub, leaf),
                ["Transfer"],
                [],
            );
        }
        g.nodes_with_label("Account");
        let one_hop = lookup(vec![transfer("t"), account("y")]);
        let two_hops = lookup(vec![
            transfer("t"),
            account("m"),
            transfer("u"),
            account("y"),
        ]);
        // The hub's 64 walks fit; one more hop walks back from each leaf.
        assert!(point_lookup_on(&g, &one_hop, "Hub"));
        assert!(!point_lookup_on(&g, &two_hops, "Hub"));
        // A leaf's one walk fits, but its second hop reaches the hub.
        assert!(point_lookup_on(&g, &one_hop, "Leaf0"));
        assert!(!point_lookup_on(&g, &two_hops, "Leaf0"));
        let extra = g.add_node("lx", ["Account"], [("owner", Value::str("LeafX"))]);
        g.add_edge("hx", Endpoints::directed(hub, extra), ["Transfer"], []);
        g.nodes_with_label("Account");
        assert!(!point_lookup_on(&g, &one_hop, "Hub"));
    }

    #[test]
    fn a_keyed_one_hop_lookup_is_a_point_lookup() {
        let gp = lookup(vec![transfer("t"), account("y")]);
        assert!(point_lookup(&gp, "Scott"));
        // A key no node holds names no node: still bounded.
        assert!(point_lookup(&gp, "Nobody"));
    }

    #[test]
    fn an_unindexed_binding_falls_back_to_a_label_scan() {
        // Integers are not indexed, so the start is the label scan.
        let gp = lookup(vec![transfer("t"), account("y")]);
        assert!(!point_lookup(&gp, 7));
    }

    #[test]
    fn a_probe_naming_two_nodes_is_not_a_point_lookup() {
        let gp = lookup(vec![transfer("t"), account("y")]);
        assert!(!point_lookup(&gp, "Twin"));
    }

    #[test]
    fn quantified_hops_are_not_point_lookups() {
        let bounded = lookup(vec![
            transfer("t").quantified(Quantifier::range(1, Some(3))),
            account("y"),
        ]);
        assert!(!point_lookup(&bounded, "Scott"));
        let mut unbounded = lookup(vec![
            transfer("t").quantified(Quantifier::plus()),
            account("y"),
        ]);
        unbounded.paths[0].selector = Some(Selector::AnyShortest);
        assert!(!point_lookup(&unbounded, "Scott"));
        let questioned = lookup(vec![
            PathPattern::Questioned(Box::new(
                PathPattern::concat(vec![transfer("t"), account("m")]).paren(),
            )),
            transfer("u"),
            account("y"),
        ]);
        assert!(!point_lookup(&questioned, "Scott"));
    }

    #[test]
    fn two_stages_are_not_a_point_lookup() {
        let mut gp = lookup(vec![transfer("t"), account("y")]);
        gp.paths
            .push(PathPatternExpr::plain(PathPattern::concat(vec![
                node("y"),
                transfer("u"),
                account("z"),
            ])));
        assert!(!point_lookup(&gp, "Scott"));
    }

    #[test]
    fn an_exists_postfilter_is_not_a_point_lookup() {
        let mut gp = lookup(vec![transfer("t"), account("y")]);
        gp.where_clause = Some(Expr::Exists(Box::new(GraphPattern::single(
            PathPattern::concat(vec![node("y"), transfer("u"), account("z")]),
        ))));
        assert!(!point_lookup(&gp, "Scott"));
    }

    #[test]
    fn explain_rendering_mentions_stages_and_joins() {
        let q = prepare(&two_stage_pattern(), &EvalOptions::default()).unwrap();
        let text = q.explain();
        assert!(text.contains("ExecutablePlan (2 stages)"), "{text}");
        assert!(text.contains("stage 0"), "{text}");
        assert!(text.contains("on {m}"), "{text}");
        assert!(text.contains("pipeline"), "{text}");
    }

    /// A postfilter `EXISTS` runs only as the plan's prepared subplan:
    /// without one it is unknown, so neither `EXISTS` nor `NOT EXISTS`
    /// keeps a row.
    #[test]
    fn exists_without_a_prepared_subplan_is_unknown() {
        let g = chain(3);
        let path = |vars: [&str; 3]| {
            PathPatternExpr::plain(PathPattern::concat(vec![
                node(vars[0]),
                edge_r(vars[1]),
                node(vars[2]),
            ]))
        };
        let exists = Expr::Exists(Box::new(GraphPattern {
            paths: vec![path(["b", "f", "c"])],
            where_clause: None,
        }));
        for post in [exists.clone(), Expr::Not(Box::new(exists))] {
            let gp = GraphPattern {
                paths: vec![path(["a", "e", "b"])],
                where_clause: Some(post),
            };
            let mut q = prepare(&gp, &EvalOptions::default()).unwrap();
            assert_eq!(q.execute(&g).unwrap().len(), 1, "{gp}");
            Arc::get_mut(&mut q.plan).unwrap().exists.clear();
            assert!(q.execute(&g).unwrap().is_empty(), "{gp}");
        }
    }
}
