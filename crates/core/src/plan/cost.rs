//! Cardinality estimation and cost-based stage ordering.
//!
//! Given a graph's [`GraphStats`] catalog, `estimates` predicts how many
//! bindings each compiled `PathStage` produces by
//! walking its label constraints, degree statistics, and predicate
//! selectivity hints; `schedule` then picks a cheapest-first stage
//! order that stays connected over the plan's explicit join graph, so the
//! cross-stage join always shrinks the accumulation as early as possible
//! and only falls back to a cartesian step when the pattern itself is
//! disconnected. A stage is priced as the start nodes its search runs
//! from (its [`StartSet`]) plus the rows it is estimated to produce. Each
//! step of the schedule carries every decision its stage's execution
//! needs — seed, join keys, filter keys and access path — so the executor
//! runs exactly what [`CostReport`] prints.
//!
//! The model is deliberately classical (textbook System-R-style
//! independence assumptions):
//!
//! * a node pattern keeps a *fraction* of candidates — its label
//!   selectivity over the per-label node counts, times an equality hint
//!   `1/distinct(key)` for `x.key = literal` prefilters;
//! * an edge pattern multiplies by the expected *fan-out* per node — the
//!   average number of adjacency steps admitted by its orientation and
//!   label, from the per-edge-label directed/undirected tallies;
//! * quantifiers sum the per-length products over their (truncated)
//!   iteration range; unions sum branches; `?` adds the skip case.
//!
//! Estimates only need to be *relatively* right for ordering, and the
//! whole walk is linear in pattern size, so it runs on every execution of
//! a multi-stage plan — there is nothing to invalidate when the graph
//! changes. A one-stage plan has nothing to order and skips it.

use std::fmt;

use property_graph::{GraphStats, PropertyGraph};

use crate::analysis::VarKind;
use crate::ast::{
    CmpOp, Direction, EdgePattern, Expr, LabelExpr, NodePattern, PathPattern, Quantifier,
};
use crate::eval::{EvalOptions, MatchMode};
use crate::params::Params;

use super::access::AccessPath;
use super::{ExecutablePlan, JoinEdge};

/// How many further iterations beyond the minimum an unbounded quantifier
/// is charged for. Selector/restrictor pruning keeps long walks from
/// dominating real executions, so the estimator charges a short horizon
/// instead of a divergent series.
const UNBOUNDED_HORIZON: u32 = 2;

/// Truncation of very wide bounded quantifier ranges, purely to bound the
/// estimator's own work.
const MAX_RANGE: u32 = 8;

/// Selectivity assumed for predicates the model has no hint for.
const DEFAULT_PREDICATE_SELECTIVITY: f64 = 0.5;

/// Estimated result rows for every stage of `plan`, in declaration order.
///
/// `params` carries the execute-time parameter bindings: an equality
/// prefilter against a *bound* `$name` is priced like a literal (the
/// distinct-value hint), while an unbound one falls back to the default
/// selectivity — which is how parameterized plans keep benefiting from
/// stage reordering even though their constants are unknown at prepare
/// time.
pub(crate) fn estimates(plan: &ExecutablePlan, stats: &GraphStats, params: &Params) -> Vec<f64> {
    plan.stages
        .iter()
        .map(|s| {
            let mut last_node_frac = 1.0;
            stats.node_count as f64
                * pattern_factor(&s.expr.pattern, stats, params, &mut last_node_frac)
        })
        .collect()
}

/// One step of a [`Schedule`]: a stage and every decision its execution
/// needs, each taken once.
#[derive(Debug)]
pub(crate) struct Step<'a> {
    /// Declaration index of the stage run at this step.
    pub(crate) stage: usize,
    /// The start variable to seed the stage from: the search starts at
    /// the distinct nodes the accumulated rows bind it to (see
    /// [`seed_var`]). `None` runs the stage from `access`.
    pub(crate) seed: Option<&'a str>,
    /// Equi-join keys against the stages placed before it.
    pub(crate) keys: Vec<&'a str>,
    /// The node-typed join keys other than `seed` whose accumulated node
    /// sets the search checks at `NodeTest`. Empty when pruning is
    /// inadmissible for the stage ([`pushdown_admissible`]).
    pub(crate) filters: Vec<&'a str>,
    /// The stage's access path over the graph: it priced the stage and,
    /// unseeded, is its start set.
    pub(crate) access: AccessPath<'a>,
}

/// How one execution of a plan runs: its steps in the chosen order.
#[derive(Debug)]
pub(crate) struct Schedule<'a> {
    /// The steps, in execution order.
    pub(crate) steps: Vec<Step<'a>>,
    /// The estimates that priced the order, by declaration index;
    /// `None` for a one-stage plan, which has nothing to order.
    pub(crate) estimates: Option<Vec<f64>>,
}

/// The one schedule function: the executor runs its steps and
/// [`CostReport::compute`] annotates them, so both see the same stages
/// in the same order with the same keys and start sets. Each stage's
/// access path is resolved once, here.
///
/// Greedy, cheapest connected stage first (see [`greedy`]). A stage is
/// priced `|start set| + estimated rows`. A stage that can be seeded
/// after the placed ones (see [`seed_var`]) starts from its join key's
/// estimated distinct nodes ([`key_count_estimate`]) instead of its
/// access path, and its rows shrink by the same ratio. When every stage
/// scans all nodes (no probe, label or seed) the price is
/// `|N| + estimate`, which orders exactly like the estimates alone. An
/// empty graph keeps declaration order, and a one-stage plan is not
/// priced at all.
pub(crate) fn schedule<'a>(
    plan: &'a ExecutablePlan,
    graph: &'a PropertyGraph,
    params: &Params,
    opts: &EvalOptions,
) -> Schedule<'a> {
    let stats = graph.stats();
    let n = plan.stages.len();
    let access: Vec<AccessPath<'a>> = plan
        .stages
        .iter()
        .map(|s| s.start.resolve(graph, params))
        .collect();
    let estimates = (n > 1).then(|| estimates(plan, stats, params));
    let order: Vec<usize> = match &estimates {
        Some(est) if stats.node_count > 0 => greedy(n, &plan.joins, |s, placed| {
            let starts = access[s].len(graph) as f64;
            match seed_var(plan, s, placed, opts) {
                Some(var) => {
                    let keys = key_count_estimate(plan, stats, est, s, placed, var);
                    keys + est[s] * keys / starts.max(1.0)
                }
                None => starts + est[s],
            }
        }),
        _ => (0..n).collect(),
    };
    let mut placed = Vec::with_capacity(n);
    let steps = order
        .into_iter()
        .map(|stage| {
            let seed = seed_var(plan, stage, &placed, opts);
            let keys = join_keys(plan, stage, &placed);
            let admissible = pushdown_admissible(plan, stage, opts);
            let filters = keys
                .iter()
                .copied()
                .filter(|&k| admissible && Some(k) != seed && is_node_var(plan, k))
                .collect();
            placed.push(stage);
            Step {
                stage,
                seed,
                keys,
                filters,
                access: access[stage],
            }
        })
        .collect();
    Schedule { steps, estimates }
}

/// The equi-join variables between `stage` and the already-executed
/// `placed` stages: the union of the join-graph edges connecting them,
/// sorted.
fn join_keys<'p>(plan: &'p ExecutablePlan, stage: usize, placed: &[usize]) -> Vec<&'p str> {
    let mut keys: Vec<&str> = plan
        .joins
        .iter()
        .filter(|j| j.links(stage, placed))
        .flat_map(|j| j.on.iter().map(String::as_str))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Greedy cheapest-connected-first ordering over the join graph: start at
/// the cheapest stage, then repeatedly take the cheapest remaining stage
/// that shares a join edge with the stages already placed (falling back to
/// the cheapest remaining stage when none is connected — a cartesian step
/// the pattern forces anyway). `cost(stage, placed)` prices a candidate
/// after the stages placed so far. Ties break toward declaration order.
fn greedy(
    n: usize,
    joins: &[JoinEdge],
    mut cost: impl FnMut(usize, &[usize]) -> f64,
) -> Vec<usize> {
    let connected = |s: usize, placed: &[usize]| joins.iter().any(|j| j.links(s, placed));
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let mut candidates: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|s| connected(*s, &order))
            .collect();
        if candidates.is_empty() {
            candidates = remaining.clone();
        }
        let (_, pick) = candidates
            .into_iter()
            .map(|s| (cost(s, &order), s))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            })
            .expect("candidates nonempty");
        order.push(pick);
        remaining.retain(|s| *s != pick);
    }
    order
}

// ---------------------------------------------------------------------------
// The estimator walk
// ---------------------------------------------------------------------------

/// Expected continuations contributed by `p`, composed multiplicatively
/// along a concatenation: node patterns are fractions in `[0, 1]`, edge
/// patterns are fan-outs in `[0, degree]`.
///
/// `last_node_frac` threads the selectivity of the most recent node test
/// through the walk — the edge model needs to know how small the
/// candidate source set is (see [`edge_fanout`]). Constructs that
/// lose track of the current node (quantifier bodies, branch merges)
/// reset it to the uninformative `1.0`.
fn pattern_factor(
    p: &PathPattern,
    stats: &GraphStats,
    params: &Params,
    last_node_frac: &mut f64,
) -> f64 {
    match p {
        PathPattern::Node(np) => {
            let s = node_selectivity(np, stats, params);
            *last_node_frac = s;
            s
        }
        PathPattern::Edge(ep) => {
            let source_frac = *last_node_frac;
            *last_node_frac = 1.0;
            edge_fanout(ep, stats, source_frac, params)
        }
        PathPattern::Concat(parts) => parts
            .iter()
            .map(|x| pattern_factor(x, stats, params, last_node_frac))
            .product(),
        PathPattern::Paren {
            inner, predicate, ..
        } => {
            pattern_factor(inner, stats, params, last_node_frac)
                * opt_predicate_selectivity(predicate, stats, params)
        }
        PathPattern::Quantified { inner, quantifier } => {
            let mut body_frac = 1.0;
            let body = pattern_factor(inner, stats, params, &mut body_frac);
            *last_node_frac = 1.0;
            quantified_factor(body, *quantifier)
        }
        PathPattern::Questioned(inner) => {
            let mut branch_frac = *last_node_frac;
            let f = pattern_factor(inner, stats, params, &mut branch_frac);
            *last_node_frac = 1.0;
            1.0 + f
        }
        PathPattern::Union(bs) | PathPattern::Alternation(bs) => {
            let entry = *last_node_frac;
            let sum = bs
                .iter()
                .map(|x| {
                    let mut branch_frac = entry;
                    pattern_factor(x, stats, params, &mut branch_frac)
                })
                .sum();
            *last_node_frac = 1.0;
            sum
        }
    }
}

/// `sum_{k=min}^{horizon} body^k` — the expected walks through a
/// quantifier whose one iteration multiplies the count by `body`.
fn quantified_factor(body: f64, q: Quantifier) -> f64 {
    let min = q.min;
    let max = q
        .max
        .unwrap_or(min.saturating_add(UNBOUNDED_HORIZON))
        .min(min.saturating_add(MAX_RANGE));
    let mut total = 0.0;
    let mut pow = body.powi(min as i32);
    for _ in min..=max {
        total += pow;
        pow *= body;
    }
    total
}

/// Fraction of nodes admitted by a node pattern.
fn node_selectivity(np: &NodePattern, stats: &GraphStats, params: &Params) -> f64 {
    let label = match &np.label {
        Some(l) => node_label_fraction(l, stats),
        None => 1.0,
    };
    (label * opt_predicate_selectivity(&np.predicate, stats, params)).clamp(0.0, 1.0)
}

/// Fraction of nodes whose label set satisfies `l`, under independence
/// (`&` takes the rarer side, `|` adds, `!` complements).
fn node_label_fraction(l: &LabelExpr, stats: &GraphStats) -> f64 {
    if stats.node_count == 0 {
        return 0.0;
    }
    let n = stats.node_count as f64;
    let frac = match l {
        LabelExpr::Wildcard => stats.labeled_node_count as f64 / n,
        LabelExpr::Label(name) => stats.nodes_with_label(name) as f64 / n,
        LabelExpr::Not(e) => 1.0 - node_label_fraction(e, stats),
        LabelExpr::And(a, b) => node_label_fraction(a, stats).min(node_label_fraction(b, stats)),
        LabelExpr::Or(a, b) => node_label_fraction(a, stats) + node_label_fraction(b, stats),
    };
    frac.clamp(0.0, 1.0)
}

/// Expected adjacency steps per node admitted by an edge pattern: the
/// matching directed/undirected edge tallies spread over all nodes, scaled
/// by how many of an edge's incidences the orientation admits.
///
/// `source_frac` is the selectivity of the node test preceding the edge
/// (`1.0` when unknown): the skewed-hub correction. A plain average
/// assumes matching edges spread uniformly over *all* nodes, which
/// collapses when a rare node label picks out exactly the hubs the edges
/// concentrate on (a star: many spokes into a few labeled hubs). The
/// corrected model assumes the opposite extreme — every matching
/// traversal is incident to the candidate set — but caps the resulting
/// per-candidate fan-out with the *observed* per-label max degree from
/// [`GraphStats::max_degrees`], which is an exact bound on any single
/// node. The result is `min(traversals / candidates, max degree)`, never
/// below the plain average.
fn edge_fanout(ep: &EdgePattern, stats: &GraphStats, source_frac: f64, params: &Params) -> f64 {
    if stats.node_count == 0 {
        return 0.0;
    }
    let n = stats.node_count as f64;
    let (directed, undirected) = matching_edges(&ep.label, stats);
    let traversals = match ep.direction {
        // A directed edge is forward-traversable from exactly one node.
        Direction::Right | Direction::Left => directed,
        // An undirected edge is traversable from both ends.
        Direction::Undirected => 2.0 * undirected,
        Direction::LeftOrRight => 2.0 * directed,
        Direction::LeftOrUndirected | Direction::UndirectedOrRight => directed + 2.0 * undirected,
        Direction::Any => 2.0 * (directed + undirected),
    };
    let mut per_node = traversals / n;
    if source_frac < 1.0 {
        let label = match &ep.label {
            Some(LabelExpr::Label(name)) => Some(name.as_str()),
            _ => None, // compound constraints fall back to the overall bound
        };
        let max = stats.max_degrees(label);
        let cap = match ep.direction {
            Direction::Right => max.bound(true, false, false),
            Direction::Left => max.bound(false, true, false),
            Direction::Undirected => max.bound(false, false, true),
            Direction::LeftOrRight => max.bound(true, true, false),
            Direction::LeftOrUndirected => max.bound(false, true, true),
            Direction::UndirectedOrRight => max.bound(true, false, true),
            Direction::Any => max.bound(true, true, true),
        } as f64;
        let candidates = (n * source_frac).max(1.0);
        per_node = per_node.max((traversals / candidates).min(cap));
    }
    per_node * opt_predicate_selectivity(&ep.predicate, stats, params)
}

/// Estimated `(directed, undirected)` edge counts matching a label
/// constraint. Plain labels use the exact per-label tallies; compound
/// expressions fall back to a fraction of the overall split (label
/// distribution assumed independent of orientation).
fn matching_edges(label: &Option<LabelExpr>, stats: &GraphStats) -> (f64, f64) {
    match label {
        None => (
            stats.directed_edge_count as f64,
            stats.undirected_edge_count as f64,
        ),
        Some(LabelExpr::Label(name)) => {
            let tallies = stats.edges_with_label(name);
            (tallies.directed as f64, tallies.undirected as f64)
        }
        Some(expr) => {
            let frac = edge_label_fraction(expr, stats);
            (
                frac * stats.directed_edge_count as f64,
                frac * stats.undirected_edge_count as f64,
            )
        }
    }
}

/// Fraction of edges whose label set satisfies `l`.
fn edge_label_fraction(l: &LabelExpr, stats: &GraphStats) -> f64 {
    if stats.edge_count == 0 {
        return 0.0;
    }
    let e = stats.edge_count as f64;
    let frac = match l {
        LabelExpr::Wildcard => stats.labeled_edge_count as f64 / e,
        LabelExpr::Label(name) => stats.edges_with_label(name).total() as f64 / e,
        LabelExpr::Not(x) => 1.0 - edge_label_fraction(x, stats),
        LabelExpr::And(a, b) => edge_label_fraction(a, stats).min(edge_label_fraction(b, stats)),
        LabelExpr::Or(a, b) => edge_label_fraction(a, stats) + edge_label_fraction(b, stats),
    };
    frac.clamp(0.0, 1.0)
}

fn opt_predicate_selectivity(e: &Option<Expr>, stats: &GraphStats, params: &Params) -> f64 {
    e.as_ref()
        .map_or(1.0, |e| predicate_selectivity(e, stats, params))
}

/// Selectivity of a prefilter. Equality against a literal — or against a
/// `$name` parameter whose value is bound in `params` — uses the
/// distinct-value hint for the property (`1/distinct`); an equality
/// against an *unbound* parameter, whose constant the planner cannot see,
/// falls back to the default. Boolean structure composes under
/// independence; everything else gets the default.
fn predicate_selectivity(e: &Expr, stats: &GraphStats, params: &Params) -> f64 {
    let sel = match e {
        Expr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Property(_, key), Expr::Literal(_))
            | (Expr::Literal(_), Expr::Property(_, key)) => distinct_hint(key, stats),
            (Expr::Property(_, key), Expr::Parameter(name))
            | (Expr::Parameter(name), Expr::Property(_, key)) => {
                if params.contains(name) {
                    // Bound at execute time: as informative as a literal.
                    distinct_hint(key, stats)
                } else {
                    DEFAULT_PREDICATE_SELECTIVITY
                }
            }
            _ => DEFAULT_PREDICATE_SELECTIVITY,
        },
        Expr::And(a, b) => {
            predicate_selectivity(a, stats, params) * predicate_selectivity(b, stats, params)
        }
        Expr::Or(a, b) => {
            predicate_selectivity(a, stats, params) + predicate_selectivity(b, stats, params)
        }
        Expr::Not(a) => 1.0 - predicate_selectivity(a, stats, params),
        Expr::Literal(_) => 1.0,
        _ => DEFAULT_PREDICATE_SELECTIVITY,
    };
    sel.clamp(0.0, 1.0)
}

fn distinct_hint(key: &str, stats: &GraphStats) -> f64 {
    match stats.distinct_values(key) {
        Some(d) => 1.0 / d.max(1) as f64,
        None => DEFAULT_PREDICATE_SELECTIVITY,
    }
}

// ---------------------------------------------------------------------------
// The cost report (EXPLAIN with statistics)
// ---------------------------------------------------------------------------

/// Which merge the executor runs for one stage of the chosen order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JoinAlgo {
    /// The first stage: its bindings seed the accumulation.
    Scan,
    /// Equi-keys exist: bucket the stage's bindings by key, probe with
    /// the accumulated rows.
    Hash,
    /// No shared singleton variables with the stages merged so far.
    Cartesian,
}

impl fmt::Display for JoinAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinAlgo::Scan => write!(f, "scan"),
            JoinAlgo::Hash => write!(f, "hash join"),
            JoinAlgo::Cartesian => write!(f, "cartesian nested loop"),
        }
    }
}

/// One step of the chosen execution order.
#[derive(Clone, Debug)]
pub struct CostStep {
    /// Declaration index of the stage executed at this step.
    pub stage: usize,
    /// Estimated bindings the stage produces, the number the executor
    /// orders by: per-label max degree caps the expansion factor when
    /// edges may concentrate on a small candidate set.
    pub estimate: f64,
    /// Equi-join keys against the stages merged before it.
    pub keys: Vec<String>,
    /// How the merge runs.
    pub algo: JoinAlgo,
    /// The node-typed join keys other than the seed variable, each with
    /// its estimated distinct key nodes: the search checks the
    /// accumulated key set of each at `NodeTest`. Empty when pruning is
    /// inadmissible for the stage (a selector stage, or endpoint-only
    /// mode).
    pub filters: Vec<(String, f64)>,
    /// The start nodes the stage's search runs from.
    pub start: StartSet,
}

/// The start set of one step: where the stage's search begins. Every
/// option is a superset of the start nodes whose bindings can survive
/// the stage's first node test and the join, so none changes a result.
#[derive(Clone, Debug, PartialEq)]
pub enum StartSet {
    /// The distinct nodes the accumulated rows bind the join key `var`
    /// to — exact, and known only at run time, so the report carries the
    /// estimate that priced it.
    Seeded {
        /// The stage's start variable, a join key with the placed stages.
        var: String,
        /// Estimated distinct key nodes.
        keys_estimate: f64,
    },
    /// An equality-index probe `label.key = value`.
    Index {
        /// The start node pattern's label.
        label: String,
        /// The probed property key.
        key: String,
        /// The compared value as written: a literal or `$name`.
        value: String,
        /// Nodes the probe returned.
        nodes: usize,
    },
    /// Every node carrying `label`.
    Label {
        /// The start node pattern's label.
        label: String,
        /// Nodes carrying it.
        nodes: usize,
    },
    /// Every node of the graph.
    All {
        /// `|N|`.
        nodes: usize,
    },
}

impl StartSet {
    fn of(path: AccessPath<'_>, graph: &PropertyGraph) -> StartSet {
        let nodes = path.len(graph);
        match path {
            AccessPath::Index {
                label, key, value, ..
            } => StartSet::Index {
                label: label.to_owned(),
                key: key.to_owned(),
                value: value.to_string(),
                nodes,
            },
            AccessPath::Label { label, .. } => StartSet::Label {
                label: label.to_owned(),
                nodes,
            },
            AccessPath::All => StartSet::All { nodes },
        }
    }
}

impl fmt::Display for StartSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartSet::Seeded { var, keys_estimate } => {
                write!(
                    f,
                    "seeded from {var} (~{} keys)",
                    fmt_estimate(*keys_estimate)
                )
            }
            StartSet::Index {
                label,
                key,
                value,
                nodes,
            } => write!(f, "index {label}.{key} = {value} \u{2192} {nodes}"),
            StartSet::Label { label, nodes } => write!(f, "label {label} \u{2192} {nodes}"),
            StartSet::All { nodes } => write!(f, "all nodes \u{2192} {nodes}"),
        }
    }
}

/// The cost-based execution decision for one (plan, graph) pair: per-stage
/// cardinality estimates, the chosen stage order, and the join algorithm
/// per step. Surfaced by `--explain` in the CLI.
///
/// ```
/// use gpml_core::ast::*;
/// use gpml_core::eval::EvalOptions;
/// use gpml_core::plan::{prepare, JoinAlgo};
/// use property_graph::{Endpoints, PropertyGraph};
///
/// // MATCH (x)-[e]->(m), (m)-[f]->(y) over a 3-chain.
/// let stage = |a: &str, e: &str, b: &str| {
///     PathPatternExpr::plain(PathPattern::concat(vec![
///         PathPattern::Node(NodePattern::var(a)),
///         PathPattern::Edge(EdgePattern::any(Direction::Right).with_var(e)),
///         PathPattern::Node(NodePattern::var(b)),
///     ]))
/// };
/// let pattern = GraphPattern {
///     paths: vec![stage("x", "e", "m"), stage("m", "f", "y")],
///     where_clause: None,
/// };
/// let mut g = PropertyGraph::new();
/// let ids: Vec<_> = (0..3).map(|i| g.add_node(&format!("n{i}"), ["N"], [])).collect();
/// g.add_edge("e0", Endpoints::directed(ids[0], ids[1]), ["T"], []);
/// g.add_edge("e1", Endpoints::directed(ids[1], ids[2]), ["T"], []);
///
/// let query = prepare(&pattern, &EvalOptions::default())?;
/// let report = query.cost_report(&g);
/// assert_eq!(report.steps.len(), 2);
/// assert_eq!(report.steps[0].algo, JoinAlgo::Scan);
/// assert_eq!(report.steps[1].keys, vec!["m".to_owned()]);
/// # Ok::<(), gpml_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct CostReport {
    /// `|N|` of the graph the report was computed against.
    pub node_count: usize,
    /// `|E|` of the graph the report was computed against.
    pub edge_count: usize,
    /// The execution steps, in chosen order.
    pub steps: Vec<CostStep>,
}

impl CostReport {
    /// Computes the report from the [`schedule`] `PreparedQuery::execute`
    /// runs under `opts`, adding the estimates and the estimated key counts
    /// of its seeds and filters.
    pub(crate) fn compute(
        plan: &ExecutablePlan,
        graph: &PropertyGraph,
        opts: &EvalOptions,
        params: &Params,
    ) -> CostReport {
        let stats = graph.stats();
        let schedule = schedule(plan, graph, params, opts);
        let est = schedule
            .estimates
            .unwrap_or_else(|| estimates(plan, stats, params));
        let mut steps = Vec::with_capacity(schedule.steps.len());
        let mut placed: Vec<usize> = Vec::new();
        for step in schedule.steps {
            let stage = step.stage;
            let keys_estimate = |k| key_count_estimate(plan, stats, &est, stage, &placed, k);
            let algo = if placed.is_empty() {
                JoinAlgo::Scan
            } else if step.keys.is_empty() {
                JoinAlgo::Cartesian
            } else {
                JoinAlgo::Hash
            };
            let filters = step
                .filters
                .iter()
                .map(|&k| (k.to_owned(), keys_estimate(k)))
                .collect();
            let start = match step.seed {
                Some(var) => StartSet::Seeded {
                    var: var.to_owned(),
                    keys_estimate: keys_estimate(var),
                },
                None => StartSet::of(step.access, graph),
            };
            steps.push(CostStep {
                stage,
                estimate: est[stage],
                keys: step.keys.iter().map(|&k| k.to_owned()).collect(),
                algo,
                filters,
                start,
            });
            placed.push(stage);
        }
        CostReport {
            node_count: stats.node_count,
            edge_count: stats.edge_count,
            steps,
        }
    }

    /// The chosen stage order (declaration indices).
    pub fn order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.stage).collect()
    }
}

// ---------------------------------------------------------------------------
// Pruning a stage by the join (sideways information passing)
// ---------------------------------------------------------------------------

fn is_node_var(plan: &ExecutablePlan, var: &str) -> bool {
    plan.analysis
        .var(var)
        .is_some_and(|info| info.kind == VarKind::Node)
}

/// Whether pruning `stage`'s search by the accumulated join — a join key
/// filter or a seeded start set — is sound: not under a per-stage
/// selector (selector application sees the stage's full binding set, so
/// pre-join pruning could change which representatives survive), and not
/// in the endpoint-only SPARQL mode (whose collapse is likewise a
/// whole-stage pass).
fn pushdown_admissible(plan: &ExecutablePlan, stage: usize, opts: &EvalOptions) -> bool {
    opts.mode != MatchMode::EndpointOnly && plan.stages[stage].expr.selector.is_none()
}

/// The variable `stage` is seeded from after the `placed` stages: its
/// start variable, when that is a node-typed join key with a placed
/// stage and pruning is admissible ([`pushdown_admissible`]). A seeded
/// search starts only at the distinct nodes the accumulated rows bind
/// the key to; every binding it skips would fail the join.
fn seed_var<'p>(
    plan: &'p ExecutablePlan,
    stage: usize,
    placed: &[usize],
    opts: &EvalOptions,
) -> Option<&'p str> {
    let var = plan.stages[stage].start.var.as_deref()?;
    let joined = plan
        .joins
        .iter()
        .any(|j| j.links(stage, placed) && j.on.iter().any(|v| v == var));
    (joined && pushdown_admissible(plan, stage, opts) && is_node_var(plan, var)).then_some(var)
}

/// Estimated distinct nodes bound to join key `k` across the accumulated
/// rows when `stage` runs: at most the estimate of the cheapest placed
/// stage binding `k`, refined by the statistics catalog — a key bound
/// inside a stage that traverses edges must land on a node of degree
/// ≥ 1 (the overall degree histogram's population), and a key whose
/// node pattern carries a plain label can hold at most that label's
/// node count. (The per-label histograms are keyed by *edge* label, so
/// they do not bound a node label's population.)
pub(crate) fn key_count_estimate(
    plan: &ExecutablePlan,
    stats: &GraphStats,
    est: &[f64],
    stage: usize,
    placed: &[usize],
    k: &str,
) -> f64 {
    let mut keys_est = stats.node_count as f64;
    let mut via_edges = false;
    let mut label: Option<&str> = None;
    for &j in placed {
        let shares = plan
            .joins
            .iter()
            .any(|je| je.links(stage, &[j]) && je.on.iter().any(|v| v == k));
        if !shares {
            continue;
        }
        keys_est = keys_est.min(est[j]);
        let other = &plan.stages[j];
        // Every edge pattern compiles to one edge test.
        via_edges |= other.prog.table_sizes().1 > 0;
        if label.is_none() {
            label = plain_node_label(&other.expr.pattern, k);
        }
    }
    if via_edges {
        // The histogram only records nodes with at least one adjacency
        // step, which is exactly the set an edge-traversing binding can
        // place the key on.
        keys_est = keys_est.min(stats.histogram(None).nodes() as f64);
    }
    if let Some(l) = label {
        keys_est = keys_est.min(stats.nodes_with_label(l) as f64);
    }
    keys_est
}

/// The plain label constraint on the node pattern binding `var`, if it
/// has exactly one (compound constraints fall back to the unlabeled
/// population bound).
fn plain_node_label<'a>(p: &'a PathPattern, var: &str) -> Option<&'a str> {
    let mut found = None;
    p.walk(&mut |p| {
        if let PathPattern::Node(NodePattern {
            var: Some(v),
            label: Some(LabelExpr::Label(name)),
            ..
        }) = p
        {
            if v == var {
                found = Some(name.as_str());
            }
        }
        found.is_none()
    });
    found
}

/// Renders an estimate compactly: two decimals below ten, integral above.
pub(crate) fn fmt_estimate(rows: f64) -> String {
    if rows < 10.0 {
        format!("{rows:.2}")
    } else {
        format!("{rows:.0}")
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  cost model ({} nodes, {} edges, cost-based order):",
            self.node_count, self.edge_count
        )?;
        for step in &self.steps {
            write!(
                f,
                "    {} stage {} (est ~{} rows",
                step.algo,
                step.stage,
                fmt_estimate(step.estimate)
            )?;
            if step.keys.is_empty() {
                writeln!(f, ")")?;
            } else {
                writeln!(f, ") on {{{}}}", step.keys.join(", "))?;
            }
            writeln!(f, "      start: {}", step.start)?;
            for (var, keys_estimate) in &step.filters {
                writeln!(
                    f,
                    "      filter: {var} (~{} keys)",
                    fmt_estimate(*keys_estimate)
                )?;
            }
        }
        let order: Vec<String> = self.order().iter().map(|i| i.to_string()).collect();
        write!(f, "    order: {}", order.join(" \u{2192} "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{GraphPattern, NodePattern, PathPatternExpr};
    use crate::eval::EvalOptions;
    use crate::plan::prepare;
    use property_graph::{Endpoints, PropertyGraph, Value};

    fn node(v: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v))
    }

    fn labeled(v: &str, l: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v).with_label(LabelExpr::label(l)))
    }

    fn edge_r(v: &str) -> PathPattern {
        PathPattern::Edge(EdgePattern::any(Direction::Right).with_var(v))
    }

    /// A hub graph: many `Big` spokes into the hub, two `Rare` nodes.
    fn hub() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let h = g.add_node("hub", ["Hub"], []);
        for i in 0..20 {
            let s = g.add_node(&format!("s{i}"), ["Big"], []);
            g.add_edge(&format!("e{i}"), Endpoints::directed(s, h), ["In"], []);
        }
        for i in 0..2 {
            let r = g.add_node(&format!("r{i}"), ["Rare"], []);
            g.add_edge(&format!("re{i}"), Endpoints::directed(h, r), ["Out"], []);
        }
        g
    }

    #[test]
    fn rare_label_estimates_below_common_label() {
        let gp = GraphPattern {
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
        };
        let q = prepare(&gp, &EvalOptions::default()).unwrap();
        let g = hub();
        let est = estimates(q.plan(), g.stats(), &Params::new());
        assert!(
            est[1] < est[0],
            "rare stage must be cheaper: {est:?} (order should start there)"
        );
        let order = schedule(q.plan(), &g, &Params::new(), &EvalOptions::default());
        assert_eq!(order.steps[0].stage, 1, "cheapest stage first: {order:?}");
    }

    #[test]
    fn max_degree_cap_prices_skewed_hubs() {
        // (h:Hub)<-[:In]-(x:Big): 20 spokes all enter the single hub.
        // Spreading the 20 In-edges evenly over all 23 nodes would predict
        // under one row from the rare Hub start; the max-degree cap knows
        // a single node can absorb all 20.
        let gp = GraphPattern::single(PathPattern::concat(vec![
            labeled("h", "Hub"),
            PathPattern::Edge(
                EdgePattern::any(Direction::Left)
                    .with_var("e")
                    .with_label(LabelExpr::label("In")),
            ),
            labeled("x", "Big"),
        ]));
        let q = prepare(&gp, &EvalOptions::default()).unwrap();
        let g = hub();
        let skewed = estimates(q.plan(), g.stats(), &Params::new())[0];
        // True cardinality is 20, an order of magnitude above the even
        // spread (|N| · P(Hub) · |In|/|N| · P(Big)); the capped model
        // lands on it.
        assert_eq!(q.execute(&g).unwrap().len(), 20);
        let even_spread = 23.0 * (1.0 / 23.0) * (20.0 / 23.0) * (20.0 / 23.0);
        assert!(skewed > 10.0 * even_spread, "{skewed} vs {even_spread}");
        assert!(
            (skewed - 20.0).abs() < 4.0,
            "capped estimate should approach 20: {skewed}"
        );

        // And EXPLAIN prints the capped estimate.
        let report = CostReport::compute(q.plan(), &g, &EvalOptions::default(), &Params::new());
        assert_eq!(report.steps[0].estimate, skewed);
        let text = report.to_string();
        assert!(
            text.contains(&format!("est ~{} rows", fmt_estimate(skewed))),
            "{text}"
        );
    }

    #[test]
    fn uniform_graphs_are_unaffected_by_the_cap() {
        // A 1:1 layered chain: no skew, so the estimate stays near the
        // even spread of its edges.
        let mut g = PropertyGraph::new();
        let mut prev = None;
        for i in 0..10 {
            let n = g.add_node(&format!("n{i}"), [if i % 2 == 0 { "A" } else { "B" }], []);
            if let Some(p) = prev {
                g.add_edge(&format!("e{i}"), Endpoints::directed(p, n), ["S"], []);
            }
            prev = Some(n);
        }
        let gp = GraphPattern::single(PathPattern::concat(vec![
            labeled("a", "A"),
            PathPattern::Edge(EdgePattern::any(Direction::Right).with_label(LabelExpr::label("S"))),
            labeled("b", "B"),
        ]));
        let q = prepare(&gp, &EvalOptions::default()).unwrap();
        let skewed = estimates(q.plan(), g.stats(), &Params::new())[0];
        // |N| · P(A) · |S|/|N| · P(B): 10 nodes, half A and half B, 9 S
        // edges.
        let even_spread = 10.0 * 0.5 * (9.0 / 10.0) * 0.5;
        // max degree 1 caps the concentration assumption right back down.
        assert!(
            (skewed - even_spread).abs() <= even_spread + 1.0,
            "cap must stay near the average on uniform graphs: {skewed} vs {even_spread}"
        );
    }

    #[test]
    fn greedy_prefers_connected_stages() {
        // Estimates: stage 2 cheapest, but stage 1 is the only one joined
        // to it; stage 0 is disconnected and must come last despite being
        // cheaper than stage 1.
        let est = [5.0, 50.0, 1.0];
        let joins = vec![JoinEdge {
            left: 1,
            right: 2,
            on: vec!["m".to_owned()],
        }];
        assert_eq!(greedy(3, &joins, |s, _| est[s]), vec![2, 1, 0]);
    }

    #[test]
    fn greedy_is_declaration_order_on_ties() {
        let est = [1.0, 1.0, 1.0];
        let joins = vec![
            JoinEdge {
                left: 0,
                right: 1,
                on: vec!["a".to_owned()],
            },
            JoinEdge {
                left: 1,
                right: 2,
                on: vec!["b".to_owned()],
            },
        ];
        assert_eq!(greedy(3, &joins, |s, _| est[s]), vec![0, 1, 2]);
    }

    #[test]
    fn empty_graph_falls_back_to_declaration_order() {
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(PathPattern::concat(vec![
                    labeled("x", "Big"),
                    edge_r("e"),
                    node("h"),
                ])),
                PathPatternExpr::plain(labeled("y", "Rare")),
            ],
            where_clause: None,
        };
        let q = prepare(&gp, &EvalOptions::default()).unwrap();
        let g = PropertyGraph::new();
        let order = schedule(q.plan(), &g, &Params::new(), &EvalOptions::default());
        assert_eq!(
            order.steps.iter().map(|p| p.stage).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn one_stage_schedule_prices_nothing() {
        let g = hub();
        let one = GraphPattern::single(PathPattern::concat(vec![
            labeled("x", "Big"),
            edge_r("e"),
            node("h"),
        ]));
        let q = prepare(&one, &EvalOptions::default()).unwrap();
        let s = schedule(q.plan(), &g, &Params::new(), &EvalOptions::default());
        assert!(s.estimates.is_none(), "{s:?}");
        assert_eq!(s.steps.len(), 1);
        assert!(matches!(
            s.steps[0].access,
            AccessPath::Label { label: "Big", .. }
        ));
        // The report still carries the estimate for it.
        let report = CostReport::compute(q.plan(), &g, &EvalOptions::default(), &Params::new());
        let est = estimates(q.plan(), g.stats(), &Params::new());
        assert_eq!(report.steps[0].estimate, est[0]);

        let q = prepare(&semi_join_pattern(), &EvalOptions::default()).unwrap();
        let s = schedule(q.plan(), &g, &Params::new(), &EvalOptions::default());
        assert_eq!(
            s.estimates,
            Some(estimates(q.plan(), g.stats(), &Params::new()))
        );
    }

    #[test]
    fn equality_hint_uses_distinct_values() {
        let mut g = PropertyGraph::new();
        for i in 0..10 {
            g.add_node(
                &format!("n{i}"),
                ["N"],
                [("k", Value::Int(i)), ("c", Value::Int(i % 2))],
            );
        }
        let stats = g.stats();
        let eq = |key: &str| {
            predicate_selectivity(
                &Expr::prop("x", key).eq(Expr::lit(1)),
                stats,
                &Params::new(),
            )
        };
        assert!((eq("k") - 0.1).abs() < 1e-9);
        assert!((eq("c") - 0.5).abs() < 1e-9);
        assert!((eq("missing") - DEFAULT_PREDICATE_SELECTIVITY).abs() < 1e-9);
    }

    #[test]
    fn quantifier_factor_sums_lengths() {
        // body fan-out 2, {1,3}: 2 + 4 + 8.
        assert!((quantified_factor(2.0, Quantifier::range(1, Some(3))) - 14.0).abs() < 1e-9);
        // Unbounded: truncated horizon of UNBOUNDED_HORIZON extra lengths.
        let unbounded = quantified_factor(2.0, Quantifier::plus());
        assert!((unbounded - 14.0).abs() < 1e-9);
        // Zero-width bodies do not diverge.
        assert!(quantified_factor(0.0, Quantifier::star()) >= 1.0);
    }

    #[test]
    fn cost_report_mirrors_execution_choices() {
        let gp = GraphPattern {
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
        };
        let q = prepare(&gp, &EvalOptions::default()).unwrap();
        let g = hub();
        let report = CostReport::compute(q.plan(), &g, &EvalOptions::default(), &Params::new());
        assert_eq!(report.order(), vec![1, 0]);
        assert_eq!(report.steps[0].algo, JoinAlgo::Scan);
        assert_eq!(report.steps[1].algo, JoinAlgo::Hash);
        assert_eq!(report.steps[1].keys, vec!["h".to_owned()]);
        let text = report.to_string();
        assert!(text.contains("hash join"), "{text}");
        assert!(text.contains("order: 1 \u{2192} 0"), "{text}");

        // Limits are not plan inputs: a different options value reports
        // the same decisions.
        let limited = CostReport::compute(
            q.plan(),
            &g,
            &EvalOptions {
                max_matches: 10,
                ..EvalOptions::default()
            },
            &Params::new(),
        );
        assert_eq!(limited.order(), report.order());
        assert_eq!(limited.steps[1].algo, JoinAlgo::Hash);
    }

    /// Two stages joined on `h`: a cheap rare-label stage and an
    /// expensive big-label stage, over the hub graph.
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
    fn tail_join_key_is_pushed_as_a_filter() {
        let q = prepare(&semi_join_pattern(), &EvalOptions::default()).unwrap();
        let g = hub();
        let report = CostReport::compute(q.plan(), &g, &EvalOptions::default(), &Params::new());
        // The rare stage scans first; the big stage joins it on h, its
        // tail, so it runs from its access path and filters h.
        assert_eq!(report.order(), vec![1, 0]);
        assert!(report.steps[0].filters.is_empty(), "scan has no filter");
        assert!(
            !matches!(report.steps[1].start, StartSet::Seeded { .. }),
            "{report}"
        );
        let filters = &report.steps[1].filters;
        assert_eq!(filters.len(), 1, "{filters:?}");
        assert_eq!(filters[0].0, "h");
        // EXPLAIN names the filter with its key estimate.
        let text = report.to_string();
        let line = format!("filter: h (~{} keys)", fmt_estimate(filters[0].1));
        assert!(text.contains(&line), "{text}");
    }

    #[test]
    fn seeded_stage_pushes_no_filter_on_its_seed_var() {
        // (h:Hub)-[f]->(y:Rare), (h)-[g]->(z): the second stage starts
        // from the distinct h nodes, so a filter on h would only re-check
        // its own seeds.
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(PathPattern::concat(vec![
                    labeled("h", "Hub"),
                    edge_r("f"),
                    labeled("y", "Rare"),
                ])),
                PathPatternExpr::plain(PathPattern::concat(vec![
                    node("h"),
                    edge_r("g"),
                    node("z"),
                ])),
            ],
            where_clause: None,
        };
        let q = prepare(&gp, &EvalOptions::default()).unwrap();
        let report = CostReport::compute(q.plan(), &hub(), &EvalOptions::default(), &Params::new());
        assert_eq!(report.order(), vec![0, 1]);
        assert!(
            matches!(&report.steps[1].start, StartSet::Seeded { var, .. } if var == "h"),
            "{report}"
        );
        assert!(report.steps[1].filters.is_empty(), "{report}");
        assert!(!report.to_string().contains("filter:"), "{report}");
    }

    #[test]
    fn no_filter_under_a_selector_or_endpoint_only() {
        let g = hub();
        let q = prepare(&semi_join_pattern(), &EvalOptions::default()).unwrap();
        let endpoint = EvalOptions {
            mode: MatchMode::EndpointOnly,
            ..EvalOptions::default()
        };
        let report = CostReport::compute(q.plan(), &g, &endpoint, &Params::new());
        assert!(report.steps.iter().all(|s| s.filters.is_empty()));
        assert!(!report.to_string().contains("filter:"), "{report}");

        // A per-stage selector sees the stage's full binding set, so the
        // selected stage must not be pre-filtered.
        let mut gp = semi_join_pattern();
        gp.paths[0].selector = Some(crate::ast::Selector::AnyShortest);
        let q = prepare(&gp, &EvalOptions::default()).unwrap();
        let report = CostReport::compute(q.plan(), &g, &EvalOptions::default(), &Params::new());
        let selected = report.steps.iter().find(|s| s.stage == 0).unwrap();
        assert!(selected.filters.is_empty(), "{:?}", selected.filters);
    }

    #[test]
    fn key_estimate_is_capped_by_the_degree_histogram() {
        // The rare stage traverses edges, so its keys must have degree
        // ≥ 1: the estimate can never exceed the histogram population.
        let q = prepare(&semi_join_pattern(), &EvalOptions::default()).unwrap();
        let g = hub();
        let stats = g.stats();
        let est = estimates(q.plan(), stats, &Params::new());
        let keys = key_count_estimate(q.plan(), stats, &est, 0, &[1], "h");
        assert!(keys <= stats.histogram(None).nodes() as f64, "{keys}");
    }
}
