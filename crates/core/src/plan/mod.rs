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
//! 4. **Compile** — each path pattern is compiled into its NFA and lowered
//!    to a flat program (one `PathStage` per comma-separated path pattern),
//!    and its pruning mode (exhaustive vs. selector-driven dominance-pruned
//!    search) is resolved graph-independently;
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
//! `prepare(..)?.execute(..)`; front-ends that see the same query text
//! repeatedly (the GQL session, SQL/PGQ `GRAPH_TABLE`, the CLI REPL)
//! retain the [`PreparedQuery`] — and cache it in a [`cache::PlanLru`]
//! keyed by `(query text, EvalOptions)` — to skip straight to execution.
//!
//! The plan structure is deliberately flat and inspectable (see the
//! [`ExecutablePlan`] `Display` impl and [`PreparedQuery::explain_for`],
//! surfaced as `--explain` in the CLI).
//!
//! With [`EvalOptions::threads`] ≥ 2 (or auto-detected parallelism on a
//! large enough graph), execution runs the per-stage searches on a scoped
//! worker pool — partitioned by start node, kicked off eagerly in cost
//! order, merged deterministically as results land — and stays bit-for-bit
//! identical to the sequential path (see `PreparedQuery::execute_parallel`
//! internals and `eval::pool`).

mod access;
pub mod cache;
pub mod cost;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use property_graph::{GraphStats, PropertyGraph};

use crate::analysis::{analyze, collect_exists, Analysis, VarClass};
use crate::ast::{Expr, GraphPattern, PathPattern, PathPatternExpr, Selector};
use crate::binding::{MatchSet, PathBinding};
use crate::error::{Error, Result};
use crate::eval::flat::{FlatMatcher, FlatProgram};
use crate::eval::nfa::{self, PruneMode, SemiJoinFilters};
use crate::eval::{pool, selector, EvalOptions, ExecProfile, JoinState, MatchMode, StageCounters};
use crate::normalize::normalize;
use crate::params::{value_type_name, ParamType, Params};
use access::StartPattern;
use cost::Placement;

pub use cache::{CacheStats, PlanLru, SharedPlanLru, DEFAULT_PLAN_CACHE_CAPACITY};
pub use cost::{CostReport, CostStep, JoinAlgo, SemiJoinDecision, StartSet};

/// Lowers `pattern` into an executable plan under `opts`.
///
/// All per-query work — mode rewriting, normalization, static analysis,
/// NFA compilation, join-graph construction, and `EXISTS` subplanning —
/// happens here, exactly once. The result is graph-independent: one
/// [`PreparedQuery`] may be executed against any number of graphs, in any
/// order, with independent results.
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
        stages.push(PathStage::lower(expr)?);
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

    // Prepare every EXISTS subquery of the postfilter as its own subplan,
    // so repeated executions skip the subquery's analysis and compilation
    // too. Deliberately eager: a one-shot query whose match is empty pays
    // for subplans it never runs, but execute latency stays flat — no
    // first-row compilation jitter. (Analysis already guaranteed the
    // subpatterns are well-formed.)
    let mut exists = ExistsPlans::default();
    if let Some(post) = &normalized.where_clause {
        let mut subs = Vec::new();
        collect_exists(post, &mut subs);
        for sub in subs {
            if !exists.plans.contains_key(sub) {
                exists.plans.insert(sub.clone(), prepare(sub, opts)?);
            }
        }
    }

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
        plan: ExecutablePlan {
            normalized,
            analysis,
            stages,
            joins,
            exists,
            params: param_slots,
        },
    })
}

// ---------------------------------------------------------------------------
// Parameter slot collection
// ---------------------------------------------------------------------------

/// The slot map: parameter name → the type expectations its usages imply.
pub(crate) type ParamSlots = BTreeMap<String, BTreeSet<ParamType>>;

pub(crate) fn collect_graph_params(gp: &GraphPattern, out: &mut ParamSlots) {
    for p in &gp.paths {
        collect_path_params(&p.pattern, out);
    }
    if let Some(post) = &gp.where_clause {
        collect_expr_params(post, out);
    }
}

fn collect_path_params(p: &PathPattern, out: &mut ParamSlots) {
    match p {
        PathPattern::Node(n) => {
            if let Some(pred) = &n.predicate {
                collect_expr_params(pred, out);
            }
        }
        PathPattern::Edge(e) => {
            if let Some(pred) = &e.predicate {
                collect_expr_params(pred, out);
            }
        }
        PathPattern::Concat(parts) => parts.iter().for_each(|x| collect_path_params(x, out)),
        PathPattern::Paren {
            inner, predicate, ..
        } => {
            collect_path_params(inner, out);
            if let Some(pred) = predicate {
                collect_expr_params(pred, out);
            }
        }
        PathPattern::Quantified { inner, .. } | PathPattern::Questioned(inner) => {
            collect_path_params(inner, out)
        }
        PathPattern::Union(bs) | PathPattern::Alternation(bs) => {
            bs.iter().for_each(|x| collect_path_params(x, out))
        }
    }
}

/// Records every `$name` in `e` into `out`, inferring type expectations
/// from usage: arithmetic operands must be numbers, and a comparison
/// against a literal expects the literal's type.
pub(crate) fn collect_expr_params(e: &Expr, out: &mut ParamSlots) {
    let mut note = |name: &str, t: Option<ParamType>| {
        let entry = out.entry(name.to_owned()).or_default();
        if let Some(t) = t {
            entry.insert(t);
        }
    };
    match e {
        Expr::Parameter(name) => note(name, None),
        Expr::Literal(_) | Expr::Var(_) | Expr::Property(..) => {}
        Expr::Not(i) | Expr::IsNull(i, _) => collect_expr_params(i, out),
        Expr::And(a, b) | Expr::Or(a, b) => {
            collect_expr_params(a, out);
            collect_expr_params(b, out);
        }
        Expr::Cmp(_, a, b) => {
            // A comparison against a literal pins the parameter's type.
            if let (Expr::Parameter(name), Expr::Literal(v))
            | (Expr::Literal(v), Expr::Parameter(name)) = (a.as_ref(), b.as_ref())
            {
                note(name, literal_expectation(v));
            }
            collect_expr_params(a, out);
            collect_expr_params(b, out);
        }
        Expr::Arith(_, a, b) => {
            for side in [a.as_ref(), b.as_ref()] {
                if let Expr::Parameter(name) = side {
                    note(name, Some(ParamType::Number));
                }
            }
            collect_expr_params(a, out);
            collect_expr_params(b, out);
        }
        Expr::IsDirected(_)
        | Expr::IsSourceOf { .. }
        | Expr::IsDestinationOf { .. }
        | Expr::Same(_)
        | Expr::AllDifferent(_)
        | Expr::Aggregate { .. } => {}
        Expr::Exists(gp) => collect_graph_params(gp, out),
    }
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
/// prepared under. Execute it against any number of graphs.
#[derive(Clone)]
pub struct PreparedQuery {
    opts: EvalOptions,
    plan: ExecutablePlan,
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
    /// counters (nodes expanded, edges traversed, rows pruned by
    /// semi-join filters) into `profile`.
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
        let stats = graph.stats();
        // One estimate pass feeds the stage order, the start sets and the
        // semi-join pushdown decisions.
        let est = cost::estimates(&self.plan, stats, true, params);
        let order = cost::plan_order(&self.plan, graph, &est, params, &self.opts);
        let threads = self.opts.effective_threads(graph.node_count());
        if threads > 1 && !order.is_empty() && graph.node_count() > 0 {
            let order: Vec<usize> = order.iter().map(|p| p.stage).collect();
            return self.execute_parallel(graph, &order, threads, params, &est, profile);
        }
        let mut join = JoinState::new(self.opts.isomorphism);
        let mut placed: Vec<usize> = Vec::with_capacity(order.len());
        for Placement { stage: i, seed } in order {
            if join.is_empty() {
                // A cheaper stage already matched nothing: every later
                // merge is empty, so the remaining searches are pure
                // cost (a skipped stage can no longer raise its
                // resource-limit error).
                break;
            }
            let stage = &self.plan.stages[i];
            let keys = self.plan.join_keys(i, &placed);
            // Sideways information passing: the distinct nodes the
            // accumulated rows hold for each shared join key become
            // start/endpoint filters inside the next stage's search, so
            // bindings that cannot join are never generated.
            let filters = self.semi_join_filters(&join, stats, &est, i, &placed, &keys);
            let counters = profile.and_then(|p| p.stage(i));
            let started = counters.map(|_| std::time::Instant::now());
            let access = stage.start.resolve(graph, params);
            // A seeded stage starts only where its join key can land; the
            // access-path starts it skips are counted as pruned.
            let starts = match seed.and_then(|v| join.distinct_key_nodes(v)) {
                Some(seeds) => {
                    if let Some(c) = counters {
                        let skipped = access.len(graph).saturating_sub(seeds.len());
                        c.add(0, 0, skipped as u64, 0, 0);
                    }
                    seeds.into_iter().collect()
                }
                None => access.nodes(graph),
            };
            let raw = stage.matches_from(
                graph,
                &self.opts,
                params,
                &starts,
                filters.as_ref(),
                counters,
            )?;
            let bindings = stage.finish_bindings(graph, &self.opts, raw)?;
            if let (Some(c), Some(t)) = (counters, started) {
                c.add_micros(t.elapsed().as_micros() as u64);
            }
            join.merge_stage(&stage.expr, &bindings, &keys);
            placed.push(i);
        }
        Ok(join.finish(
            graph,
            &self.plan.normalized,
            &self.opts,
            &self.plan.exists,
            params,
        ))
    }

    /// Builds the semi-join filter map for `stage` from the accumulated
    /// join rows: the exact distinct node sets of every key whose
    /// [`cost::semi_join_decisions`] verdict is *apply* and whose rows
    /// all bind the key to a node. Returns `None` when no filter is
    /// worth (or safe to) push.
    fn semi_join_filters(
        &self,
        join: &JoinState,
        stats: &GraphStats,
        est: &[f64],
        stage: usize,
        placed: &[usize],
        keys: &[String],
    ) -> Option<SemiJoinFilters> {
        let decisions =
            cost::semi_join_decisions(&self.plan, stats, est, stage, placed, keys, &self.opts);
        let mut filters = SemiJoinFilters::new();
        for d in decisions.iter().filter(|d| d.apply) {
            if let Some(set) = join.distinct_key_nodes(&d.var) {
                filters.insert(d.var.clone(), set);
            }
        }
        (!filters.is_empty()).then_some(filters)
    }

    /// The start-node partition for the worker pool, refined by degree
    /// skew: when the statistics catalog's degree histogram shows nodes
    /// far above the average degree, each such *hub* start node becomes
    /// its own work unit (see [`pool::adaptive_chunks`]), so one
    /// expensive start cannot serialize a whole chunk behind it. Uniform
    /// graphs take the plain contiguous partition — the histogram check
    /// costs a few bucket sums, not a per-node scan.
    fn start_chunks(
        &self,
        graph: &PropertyGraph,
        stats: &GraphStats,
        starts: &[property_graph::NodeId],
        threads: usize,
    ) -> Vec<std::ops::Range<usize>> {
        const HUB_FACTOR: usize = 8;
        let avg_steps = (2 * stats.edge_count).div_ceil(stats.node_count.max(1));
        let hub_threshold = avg_steps.max(1) * HUB_FACTOR;
        if stats.degree_histogram.nodes_at_or_above(hub_threshold) == 0 {
            return pool::chunks(starts.len(), threads);
        }
        pool::adaptive_chunks(starts.len(), threads, |i| {
            graph.steps(starts[i]).len() >= hub_threshold
        })
    }

    /// Parallel execution: every stage's search is kicked off eagerly on
    /// a scoped worker pool, its access-path start set split into
    /// partitions (see [`crate::eval::pool`]), while the caller's thread
    /// merges completed stages through the [`JoinState`] *in the same
    /// cost-chosen order* as the sequential path. Determinism falls out
    /// of three facts:
    ///
    /// * partition results are spliced back in partition order before the
    ///   stage's (sorting) reduce/dedup pass, so each stage's bindings
    ///   are bit-for-bit the sequential stage's;
    /// * stages merge strictly in `order`, however their searches finish,
    ///   so the join accumulates exactly the sequential row order;
    /// * the early exit fires on the same condition (empty accumulation)
    ///   at the same merge position — it cancels
    ///   the not-yet-claimed work units of later stages and ignores
    ///   whatever eager results (or resource-limit errors) those stages
    ///   already produced, which is precisely the set of stages the
    ///   sequential executor never runs.
    ///
    /// Errors surface in merge order: the first failing stage at or
    /// before the merge frontier aborts the run, like the sequential
    /// loop; failures of stages past an early exit are dropped with their
    /// results.
    ///
    /// Semi-join filters reach the pool through per-position slots: after
    /// each merge, the sink publishes the next position's filter map, and
    /// a worker snapshots its position's slot *at claim time*. Units
    /// claimed before publication simply run unfiltered — a filtered and
    /// an unfiltered partition differ only in bindings the join rejects
    /// anyway, and the per-stage reduce/dedup pass is a sorted set, so
    /// the merged output stays bit-for-bit the sequential result. With
    /// idle workers the race is usually lost: they claim later stages'
    /// units as soon as the first merge begins, so parallel runs often
    /// prune little or nothing (a known limit; see ARCHITECTURE). For the
    /// same reason seeding is sequential-only: a stage the order marks
    /// seeded runs from its access path here.
    fn execute_parallel(
        &self,
        graph: &PropertyGraph,
        order: &[usize],
        threads: usize,
        params: &Params,
        est: &[f64],
        profile: Option<&ExecProfile>,
    ) -> Result<MatchSet> {
        use std::ops::ControlFlow;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, RwLock};

        let stats = graph.stats();
        // Each position's access-path start set, chunked on its own; at
        // least one (possibly empty) unit per position, so every stage
        // merges. Units are numbered position-major: position `pos` owns
        // `first_unit[pos]..first_unit[pos + 1]`.
        let starts: Vec<_> = order
            .iter()
            .map(|&i| {
                self.plan.stages[i]
                    .start
                    .resolve(graph, params)
                    .nodes(graph)
            })
            .collect();
        let mut units: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        let mut first_unit = Vec::with_capacity(order.len() + 1);
        for (pos, set) in starts.iter().enumerate() {
            first_unit.push(units.len());
            let chunks = self.start_chunks(graph, stats, set, threads);
            if chunks.is_empty() {
                units.push((pos, 0..0));
            }
            units.extend(chunks.into_iter().map(|c| (pos, c)));
        }
        first_unit.push(units.len());
        let unit_count = units.len();

        // Stage positions >= this are cancelled (early exit): workers
        // return an empty result instead of searching.
        let cancel_from = AtomicUsize::new(usize::MAX);

        // One semi-join filter slot per order position, published by the
        // merging (caller) thread, snapshot by workers at claim time.
        let filter_slots: Vec<RwLock<Option<Arc<SemiJoinFilters>>>> =
            (0..order.len()).map(|_| RwLock::new(None)).collect();

        let mut pending: Vec<Option<Result<Vec<PathBinding>>>> =
            (0..unit_count).map(|_| None).collect();
        let mut received = vec![0usize; order.len()];
        let mut join = JoinState::new(self.opts.isomorphism);
        let mut placed: Vec<usize> = Vec::with_capacity(order.len());
        let mut merge_pos = 0usize;
        let mut failure: Option<crate::error::Error> = None;

        pool::run_units(
            threads,
            unit_count,
            |u| {
                let (pos, chunk) = units[u].clone();
                if pos >= cancel_from.load(Ordering::Relaxed) {
                    return Ok(Vec::new());
                }
                let idx = order[pos];
                let stage = &self.plan.stages[idx];
                let filters = filter_slots[pos].read().expect("filter slot").clone();
                let counters = profile.and_then(|p| p.stage(idx));
                let started = counters.map(|_| std::time::Instant::now());
                let out = stage.matches_from(
                    graph,
                    &self.opts,
                    params,
                    &starts[pos][chunk],
                    filters.as_deref(),
                    counters,
                );
                if let (Some(c), Some(t)) = (counters, started) {
                    c.add_micros(t.elapsed().as_micros() as u64);
                }
                out
            },
            |u, out| {
                let pos = units[u].0;
                pending[u] = Some(out);
                received[pos] += 1;
                while merge_pos < order.len()
                    && received[merge_pos] == first_unit[merge_pos + 1] - first_unit[merge_pos]
                {
                    let idx = order[merge_pos];
                    let stage = &self.plan.stages[idx];
                    let mut raw = Vec::new();
                    for slot in &mut pending[first_unit[merge_pos]..first_unit[merge_pos + 1]] {
                        match slot.take().expect("received") {
                            Ok(mut part) => raw.append(&mut part),
                            Err(e) => {
                                // Abort: make every still-unclaimed unit
                                // a no-op before winding down.
                                cancel_from.store(0, Ordering::Relaxed);
                                failure = Some(e);
                                return ControlFlow::Break(());
                            }
                        }
                    }
                    match stage.finish_bindings(graph, &self.opts, raw) {
                        Ok(bindings) => {
                            let keys = self.plan.join_keys(idx, &placed);
                            join.merge_stage(&stage.expr, &bindings, &keys);
                            placed.push(idx);
                        }
                        Err(e) => {
                            cancel_from.store(0, Ordering::Relaxed);
                            failure = Some(e);
                            return ControlFlow::Break(());
                        }
                    }
                    merge_pos += 1;
                    if join.is_empty() {
                        // Same early exit as the sequential loop: nothing
                        // can survive further merges, so later stages are
                        // pure cost — cancel their unclaimed partitions
                        // (immediately, without waiting for their searches
                        // to land) and ignore what already ran.
                        cancel_from.store(merge_pos, Ordering::Relaxed);
                        return ControlFlow::Break(());
                    }
                    if merge_pos < order.len() {
                        // Publish the next position's semi-join filters:
                        // units of that stage claimed from here on prune
                        // against the now-complete accumulated key sets.
                        let next = order[merge_pos];
                        let keys = self.plan.join_keys(next, &placed);
                        if let Some(f) =
                            self.semi_join_filters(&join, stats, est, next, &placed, &keys)
                        {
                            *filter_slots[merge_pos].write().expect("filter slot") =
                                Some(Arc::new(f));
                        }
                    }
                }
                if merge_pos == order.len() {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );

        if let Some(e) = failure {
            return Err(e);
        }
        Ok(join.finish(
            graph,
            &self.plan.normalized,
            &self.opts,
            &self.plan.exists,
            params,
        ))
    }

    /// The lowered plan (inspect or `Display` it for an EXPLAIN view).
    pub fn plan(&self) -> &ExecutablePlan {
        &self.plan
    }

    /// Registers the `$name` parameters of a host-side expression (a
    /// `RETURN` item, `ORDER BY` key, or `COLUMNS` projection) as
    /// additional slots of this plan, so bind-time validation covers the
    /// whole statement — not just the pattern — and a binding consumed
    /// only by a projection is not misreported as unused.
    pub fn declare_params_in(&mut self, expr: &Expr) {
        collect_expr_params(expr, &mut self.plan.params);
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

/// The flat, inspectable result of lowering a graph pattern: one compiled
/// NFA stage per path pattern, the explicit join graph over shared
/// singleton variables, and the selector/postfilter stages.
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

    /// The equi-join variables between `stage` and the already-executed
    /// `placed` stages: the union of the join-graph edges connecting them.
    pub(crate) fn join_keys(&self, stage: usize, placed: &[usize]) -> Vec<String> {
        let mut keys: Vec<String> = self
            .joins
            .iter()
            .filter(|j| {
                (j.left == stage && placed.contains(&j.right))
                    || (j.right == stage && placed.contains(&j.left))
            })
            .flat_map(|j| j.on.iter().cloned())
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

/// One compiled path pattern: its flat program, resolved search mode,
/// and the per-stage reduce/dedup/select pipeline inputs.
#[derive(Clone)]
pub(crate) struct PathStage {
    /// The normalized pattern (kept for the graph-dependent edge bound
    /// and for EXPLAIN rendering).
    pub(crate) expr: PathPatternExpr,
    /// The compiled NFA lowered into the flat transition-array IR — what
    /// executes.
    pub(crate) prog: FlatProgram,
    /// Search mode, resolved graph-independently at prepare time.
    pub(crate) prune: PruneMode,
    /// Named (non-anonymous) variables this stage binds.
    pub(crate) vars: BTreeSet<String>,
    /// The start node pattern, read once for the access-path choice.
    pub(crate) start: StartPattern,
}

impl PathStage {
    /// Compiles one normalized path pattern into a stage.
    fn lower(expr: &PathPatternExpr) -> Result<PathStage> {
        let nfa = nfa::compile(&expr.pattern);
        let prog = FlatProgram::from_nfa(&nfa);
        let selector_groups = expr.selector.as_ref().and_then(selector::length_groups);
        let prune = nfa::resolve_prune(&nfa, expr.restrictor, selector_groups)?;
        let mut var_list = Vec::new();
        nfa::collect_vars(&expr.pattern, &mut var_list);
        let mut vars: BTreeSet<String> = var_list.into_iter().map(|(v, _)| v).collect();
        if let Some(pv) = &expr.path_var {
            vars.insert(pv.clone());
        }
        Ok(PathStage {
            expr: expr.clone(),
            prog,
            prune,
            vars,
            start: StartPattern::of(&expr.pattern),
        })
    }

    /// The raw product-automaton search seeded from `starts` only — a
    /// stage's start set, or one partition of it. Partitions are
    /// independent (see [`FlatMatcher::run_from`]); splicing their results
    /// in partition order and handing the whole to
    /// [`PathStage::finish_bindings`] reproduces one search over the
    /// whole set. `filters` carries the semi-join node sets pushed down
    /// from the accumulated join (checked at every `NodeTest` the search
    /// takes); `counters` receives the search's execution tallies when
    /// profiling.
    pub(crate) fn matches_from(
        &self,
        graph: &PropertyGraph,
        opts: &EvalOptions,
        params: &Params,
        starts: &[property_graph::NodeId],
        filters: Option<&SemiJoinFilters>,
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
            m.flush_counters(c);
        }
        out
    }

    /// The order-insensitive second half of stage execution: §6.5
    /// reduction/deduplication (a sorted set, which is what makes the
    /// partition splice order irrelevant), §5.1 selector application, and
    /// the endpoint-only collapse. Re-checks the stage-wide
    /// [`EvalOptions::max_matches`] limit so partitioned runs enforce the
    /// same total budget as a sequential search.
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

        // Reduction and deduplication (§6.5).
        let deduped: BTreeSet<PathBinding> = raw.into_iter().map(PathBinding::reduce).collect();
        let mut bindings: Vec<PathBinding> = deduped.into_iter().collect();

        if let Some(sel) = &self.expr.selector {
            bindings = selector::apply(graph, sel, bindings);
        }

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
}

/// One edge of the explicit join graph: stages `left` and `right` must
/// agree on the variables in `on`.
#[derive(Clone, Debug)]
pub(crate) struct JoinEdge {
    pub(crate) left: usize,
    pub(crate) right: usize,
    pub(crate) on: Vec<String>,
}

/// Prepared subplans for `EXISTS` subqueries, keyed by their subpattern.
#[derive(Clone, Default)]
pub(crate) struct ExistsPlans {
    plans: HashMap<GraphPattern, PreparedQuery>,
}

impl ExistsPlans {
    /// The prepared subplan for `pattern`, if one was prepared.
    pub(crate) fn get(&self, pattern: &GraphPattern) -> Option<&PreparedQuery> {
        self.plans.get(pattern)
    }

    pub(crate) fn len(&self) -> usize {
        self.plans.len()
    }
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

fn has_unbounded(p: &PathPattern) -> bool {
    match p {
        PathPattern::Node(_) | PathPattern::Edge(_) => false,
        PathPattern::Concat(parts) => parts.iter().any(has_unbounded),
        PathPattern::Paren {
            restrictor, inner, ..
        } => {
            // A restrictor inside the paren already bounds its subtree.
            restrictor.is_none() && has_unbounded(inner)
        }
        PathPattern::Quantified { inner, quantifier } => {
            quantifier.is_unbounded() || has_unbounded(inner)
        }
        PathPattern::Questioned(inner) => has_unbounded(inner),
        PathPattern::Union(bs) | PathPattern::Alternation(bs) => bs.iter().any(has_unbounded),
    }
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
            // plan-size metrics; NFA state counts are compiler internals.
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
            let search = match stage.prune {
                PruneMode::Exhaustive => "exhaustive (statically bounded)".to_owned(),
                PruneMode::ShortestGroups(k) => {
                    format!("dominance-pruned BFS ({k} length group{})", plural(k))
                }
            };
            writeln!(f, "    search: {search}")?;
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
            if self.exists.len() > 0 {
                write!(
                    f,
                    " [{} prepared EXISTS subplan{}]",
                    self.exists.len(),
                    plural(self.exists.len())
                )?;
            }
            writeln!(f)?;
        }
        write!(f, "  pipeline: match \u{2192} reduce \u{2192} dedup \u{2192} select \u{2192} join \u{2192} filter")
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
        // The parallel executor shares these across scoped worker
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
        let unbound = cost::estimates(q.plan(), g.stats(), true, &crate::Params::new());
        let bound = cost::estimates(
            q.plan(),
            g.stats(),
            true,
            &crate::Params::new().with("v", 3),
        );
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
        let q = prepare(
            &semi_join_pattern(),
            &EvalOptions {
                threads: 1,
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
        // surviving to the join.
        assert_eq!(pruned, 20, "totals: {:?}", profile.totals());
        // Counters are addressed by declaration stage index: the filtered
        // big stage is stage 0 regardless of execution order.
        assert_eq!(profile.stages()[0].rows_pruned(), 20);
        assert_eq!(profile.stages()[1].rows_pruned(), 0);
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
}
