//! GQL host language (§6.6, Figure 9).
//!
//! GQL embeds the GPML pattern matching language in a full query language.
//! This crate provides the host features the paper describes:
//!
//! * a [`Session`] with a catalog of named property graphs;
//! * `MATCH ... [WHERE ...] RETURN [DISTINCT] item [AS alias], ...
//!   [ORDER BY expr [ASC|DESC], ...] [SKIP n] [LIMIT n]` queries, where
//!   return items may be scalars, element references, group references,
//!   or whole paths (GQL, unlike SQL/PGQ, can return paths as values);
//! * **graph projection** (§6.6): each path binding defines a subgraph of
//!   the input graph, and [`Session::project_graph`] materializes it as a
//!   new property graph — the output form the paper anticipates for
//!   future GQL versions.
//!
//! GQL shares its runtime with SQL/PGQ: a statement compiles to the core
//! [`Statement`] ([`PreparedGqlQuery`] is that type), its `RETURN` clause
//! to the core [`Projection`](gpml_core::plan::Projection), and the
//! session caches it in a [`SharedPlanLru`]. This crate adds the catalog,
//! the [`GqlValue`] cell a bare variable's element, group or path binding
//! renders into, and the result types.
//!
//! ```
//! use gql::Session;
//! use gpml_datagen::fig1;
//!
//! let mut session = Session::new();
//! session.register("bank", fig1());
//! let result = session
//!     .execute(
//!         "bank",
//!         "MATCH (a:Account)-[t:Transfer]->(b:Account) \
//!          WHERE t.amount >= 10M \
//!          RETURN a.owner AS sender, b.owner AS receiver ORDER BY sender",
//!     )
//!     .unwrap();
//! assert_eq!(result.columns, vec!["sender", "receiver"]);
//! assert_eq!(result.rows.len(), 4);
//! ```

pub mod codec;
pub mod cursor;
pub mod json;

pub use cursor::ResultCursor;

use std::collections::BTreeMap;

use gpml_core::binding::{BoundValue, MatchRow};
use gpml_core::eval::{EvalOptions, ExecProfile};
use gpml_core::plan::{CacheStats, SharedPlanLru, Statement};
use gpml_core::Params;
use gpml_parser::Parser;
use property_graph::{ElementId, PropertyGraph, Value};

/// A value in a GQL result row: scalars, element references, groups, and
/// paths are all first-class.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GqlValue {
    /// A scalar (possibly `Null`).
    Scalar(Value),
    /// A node or edge reference, by external name.
    Element(String),
    /// A group binding: element names in iteration order.
    Group(Vec<String>),
    /// A path value, rendered in the paper's `path(...)` notation.
    Path(String),
}

impl GqlValue {
    /// The scalar value, for `Scalar` cells.
    pub fn as_value(&self) -> Option<&Value> {
        match self {
            GqlValue::Scalar(v) => Some(v),
            _ => None,
        }
    }

    /// The string content of a `Scalar(Str)` cell.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            GqlValue::Scalar(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The integer content of a `Scalar(Int)` cell.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            GqlValue::Scalar(Value::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// The boolean content of a `Scalar(Bool)` cell.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            GqlValue::Scalar(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// The float content of a `Scalar` cell; integers widen.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_value().and_then(Value::as_f64)
    }

    /// A bare variable's binding as a cell: an element by name, a group
    /// as its members' names, a path in `path(...)` notation.
    fn of_binding(g: &PropertyGraph, b: &BoundValue) -> GqlValue {
        match b {
            BoundValue::Node(_) | BoundValue::Edge(_) => {
                GqlValue::Element(b.display(g).to_string())
            }
            BoundValue::NodeGroup(ns) => {
                GqlValue::Group(ns.iter().map(|n| g.node(*n).name.clone()).collect())
            }
            BoundValue::EdgeGroup(es) => {
                GqlValue::Group(es.iter().map(|e| g.edge(*e).name.clone()).collect())
            }
            BoundValue::Path(p) => GqlValue::Path(p.display(g).to_string()),
        }
    }
}

impl From<Value> for GqlValue {
    fn from(v: Value) -> GqlValue {
        GqlValue::Scalar(v)
    }
}

impl std::fmt::Display for GqlValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GqlValue::Scalar(v) => write!(f, "{v}"),
            GqlValue::Element(n) => write!(f, "{n}"),
            GqlValue::Group(ns) => write!(f, "[{}]", ns.join(",")),
            GqlValue::Path(p) => write!(f, "{p}"),
        }
    }
}

impl TryFrom<GqlValue> for i64 {
    type Error = GqlError;

    fn try_from(v: GqlValue) -> Result<i64, GqlError> {
        v.as_int()
            .ok_or_else(|| GqlError::Host(format!("expected an integer, got {v}")))
    }
}

impl TryFrom<GqlValue> for bool {
    type Error = GqlError;

    fn try_from(v: GqlValue) -> Result<bool, GqlError> {
        v.as_bool()
            .ok_or_else(|| GqlError::Host(format!("expected a boolean, got {v}")))
    }
}

impl TryFrom<GqlValue> for f64 {
    type Error = GqlError;

    fn try_from(v: GqlValue) -> Result<f64, GqlError> {
        v.as_f64()
            .ok_or_else(|| GqlError::Host(format!("expected a number, got {v}")))
    }
}

impl TryFrom<GqlValue> for String {
    type Error = GqlError;

    /// Strings come out of `Scalar(Str)` cells; element, group, and path
    /// references are *not* silently stringified — render those with
    /// `Display` instead.
    fn try_from(v: GqlValue) -> Result<String, GqlError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| GqlError::Host(format!("expected a string, got {v}")))
    }
}

/// The table-shaped result of a GQL query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<GqlValue>>,
}

impl QueryResult {
    /// The value at `(row, column-name)`.
    pub fn get(&self, row: usize, column: &str) -> Option<&GqlValue> {
        let c = self.columns.iter().position(|c| c == column)?;
        self.rows.get(row)?.get(c)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for QueryResult {
    /// Renders the result as a compact `|`-separated table: a header
    /// line, one line per row, and a trailing row count — the same shape
    /// the `gpml` CLI prints.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        write!(f, "({} rows)", self.rows.len())
    }
}

/// A GQL error: parse, static-analysis/evaluation, or host-level.
#[derive(Clone, Debug, PartialEq)]
pub enum GqlError {
    Parse(gpml_parser::ParseError),
    Eval(gpml_core::Error),
    Host(String),
}

impl std::fmt::Display for GqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GqlError::Parse(e) => write!(f, "{e}"),
            GqlError::Eval(e) => write!(f, "{e}"),
            GqlError::Host(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for GqlError {}

impl From<gpml_parser::ParseError> for GqlError {
    fn from(e: gpml_parser::ParseError) -> Self {
        GqlError::Parse(e)
    }
}

impl From<gpml_core::Error> for GqlError {
    fn from(e: gpml_core::Error) -> Self {
        GqlError::Eval(e)
    }
}

/// A compiled GQL statement: the core [`Statement`], shared with
/// SQL/PGQ. Parsed once, lowered once through the [`gpml_core::plan`]
/// layer, executable any number of times against any registered graph
/// (plans are graph-independent).
pub type PreparedGqlQuery = Statement;

impl GqlError {
    /// The parse error a statement without `RETURN` raises where a table
    /// is wanted: a bare `MATCH` parses to the end of its text, which is
    /// where the keyword was expected.
    pub fn missing_return(text: &str) -> GqlError {
        GqlError::Parse(gpml_parser::ParseError {
            pos: text.len(),
            message: "expected keyword RETURN".to_owned(),
        })
    }
}

/// A GQL session: a catalog of graphs, evaluation options, and an LRU
/// plan cache keyed by `(query text, EvalOptions)` so replayed statements
/// skip parse, analysis, and compilation.
///
/// The catalog owns its graphs by value. The plan cache is a
/// [`SharedPlanLru`] handle: by default each session gets its own, but
/// [`Session::with_cache`] lets many sessions share one, so the same
/// skeleton prepared by a thousand sessions compiles once. The `gpmld`
/// server builds one graph-less session this way and evaluates against
/// its journal's epochs through
/// [`Session::execute_prepared_profiled_on`].
#[derive(Default)]
pub struct Session {
    catalog: BTreeMap<String, PropertyGraph>,
    options: EvalOptions,
    /// Thread-safe handle (possibly shared with sibling sessions); lock
    /// scopes are per-lookup, never held across execution.
    plans: SharedPlanLru<Statement>,
}

impl Session {
    /// A session with default evaluation options.
    pub fn new() -> Session {
        Session::default()
    }

    /// A session with explicit evaluation options (match modes, limits).
    pub fn with_options(options: EvalOptions) -> Session {
        Session::with_cache(options, SharedPlanLru::default())
    }

    /// A session over an existing (possibly shared) plan cache. Sessions
    /// built over clones of one [`SharedPlanLru`] share every cached
    /// plan: whichever session prepares a statement first compiles it for
    /// all of them.
    pub fn with_cache(options: EvalOptions, cache: SharedPlanLru<Statement>) -> Session {
        Session {
            catalog: BTreeMap::new(),
            options,
            plans: cache,
        }
    }

    /// A handle to the session's plan cache; clone it into
    /// [`Session::with_cache`] to build sibling sessions that share it.
    pub fn plan_cache(&self) -> &SharedPlanLru<Statement> {
        &self.plans
    }

    /// Caps the number of distinct prepared plans the session retains
    /// (evicting least-recently-used entries beyond it).
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.plans.set_capacity(capacity);
    }

    /// The evaluation options statements are prepared under.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Sets the worker-thread count for parallel stage matching (`0` =
    /// auto, `1` = sequential; see [`EvalOptions::threads`]). Takes
    /// effect for subsequent statements: options are part of the plan
    /// cache key, so plans prepared under the old setting are simply not
    /// reused.
    pub fn set_threads(&mut self, threads: usize) {
        self.options.threads = threads;
    }

    /// Hit/miss counters and occupancy of the session's plan cache.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plans.stats()
    }

    /// Registers a graph under `name` (GQL's catalog).
    pub fn register(&mut self, name: impl Into<String>, graph: PropertyGraph) {
        self.catalog.insert(name.into(), graph);
    }

    /// The graph registered under `name`.
    pub fn graph(&self, name: &str) -> Option<&PropertyGraph> {
        self.catalog.get(name)
    }

    /// The graph registered under `name`, or the host error naming it.
    fn graph_of(&self, name: &str) -> Result<&PropertyGraph, GqlError> {
        self.graph(name)
            .ok_or_else(|| GqlError::Host(format!("unknown graph {name}")))
    }

    /// Parses and lowers a statement — `MATCH ... RETURN ...` or a bare
    /// `MATCH ...` — into a reusable [`Statement`]. Preparation is
    /// graph-independent: prepare once, then execute against any graph in
    /// the catalog, any number of times. Successful preparations land in
    /// the session's LRU plan cache, so a replayed statement (here, in
    /// [`Session::execute`], or in [`Session::match_bindings`]) skips
    /// parse, analysis, and compilation.
    pub fn prepare(&self, query: &str) -> Result<Statement, GqlError> {
        self.plans
            .get_or_try_insert(query, &self.options, || self.prepare_uncached(query))
    }

    /// [`Session::prepare`] with the plan cache bypassed entirely: no
    /// lookup (so no miss is counted) and no insertion. The server's
    /// warm-start path compiles persisted statements through this, then
    /// seeds the shared cache itself — keeping `cache.misses` an honest
    /// count of compilations forced by client traffic.
    pub fn prepare_uncached(&self, query: &str) -> Result<Statement, GqlError> {
        let mut p = Parser::new(query);
        p.expect_kw("MATCH")?;
        let pattern = p.parse_graph_pattern()?;
        let projection = if p.at_eof() {
            None
        } else {
            p.expect_kw("RETURN")?;
            Some(p.parse_return()?)
        };
        p.expect_eof()?;
        Ok(Statement::prepare(&pattern, projection, &self.options)?)
    }

    /// Runs a prepared `MATCH ... RETURN ...` against the named graph.
    pub fn execute_prepared(
        &self,
        graph: &str,
        prepared: &Statement,
    ) -> Result<QueryResult, GqlError> {
        self.execute_prepared_with(graph, prepared, &Params::new())
    }

    /// Runs a prepared `MATCH ... RETURN ...` against the named graph
    /// with `params` bound to the statement's `$name` placeholders — the
    /// *bind* step of the prepare → bind → execute cycle. Unbound,
    /// superfluous, and type-mismatched bindings surface as
    /// [`GqlError::Eval`] before any matching happens.
    pub fn execute_prepared_with(
        &self,
        graph: &str,
        prepared: &Statement,
        params: &Params,
    ) -> Result<QueryResult, GqlError> {
        self.execute_prepared_profiled_on(self.graph_of(graph)?, prepared, params, None)
    }

    /// [`Self::execute_prepared_with`], additionally tallying per-stage
    /// execution counters (nodes expanded, edges traversed, rows pruned
    /// by the join's key sets) into `profile` — see
    /// [`gpml_core::PreparedQuery::execute_with_profile`]. Create the profile with
    /// [`ExecProfile::new`] sized to the plan's stage count; counters
    /// accumulate across executions sharing a profile.
    pub fn execute_prepared_profiled(
        &self,
        graph: &str,
        prepared: &Statement,
        params: &Params,
        profile: &ExecProfile,
    ) -> Result<QueryResult, GqlError> {
        self.execute_prepared_profiled_on(self.graph_of(graph)?, prepared, params, Some(profile))
    }

    /// [`Self::execute_prepared_profiled`] against a graph the caller
    /// already holds, bypassing the catalog. This is the server's
    /// snapshot-pinned read path: the caller pins an epoch's
    /// `Arc<PropertyGraph>` from its journal and evaluates against that
    /// exact graph, no matter how many commits land meanwhile. Pass
    /// `profile = None` for unprofiled execution.
    pub fn execute_prepared_profiled_on(
        &self,
        g: &PropertyGraph,
        prepared: &Statement,
        params: &Params,
        profile: Option<&ExecProfile>,
    ) -> Result<QueryResult, GqlError> {
        if !prepared.has_return() {
            return Err(GqlError::Host("statement has no RETURN clause".to_owned()));
        }
        let rows = prepared.run(g, params, profile, |b| GqlValue::of_binding(g, b))?;
        Ok(QueryResult {
            columns: prepared.columns(),
            rows,
        })
    }

    /// Runs a prepared statement with `$name` parameter bindings and
    /// returns the raw binding rows, ignoring any `RETURN` projection.
    pub fn match_prepared_with(
        &self,
        graph: &str,
        prepared: &Statement,
        params: &Params,
    ) -> Result<Vec<MatchRow>, GqlError> {
        let g = self.graph_of(graph)?;
        Ok(prepared.query().execute_with(g, params)?.rows)
    }

    /// Runs `MATCH ... RETURN ...` against the named graph, reusing the
    /// session's cached plan for the statement when one exists.
    pub fn execute(&self, graph: &str, query: &str) -> Result<QueryResult, GqlError> {
        self.execute_with_params(graph, query, &Params::new())
    }

    /// Runs a parameterized `MATCH ... RETURN ...` with `params` bound to
    /// its `$name` placeholders. The statement text is the plan-cache key,
    /// so replaying one skeleton with many different bindings compiles it
    /// once and hits the cache on every re-bind — the prepare-once /
    /// execute-many economics the session is built around.
    ///
    /// ```
    /// use gql::Session;
    /// use gpml_core::Params;
    /// use gpml_datagen::fig1;
    ///
    /// let mut session = Session::new();
    /// session.register("bank", fig1());
    /// let skeleton = "MATCH (a:Account WHERE a.owner = $owner)-[t:Transfer]->(b) \
    ///                 RETURN b.owner AS receiver ORDER BY receiver";
    /// for owner in ["Dave", "Scott"] {
    ///     let params = Params::new().with("owner", owner);
    ///     let result = session.execute_with_params("bank", skeleton, &params).unwrap();
    ///     assert!(!result.is_empty());
    /// }
    /// // One compiled plan served both bindings.
    /// assert_eq!(session.plan_cache_stats().len, 1);
    /// ```
    pub fn execute_with_params(
        &self,
        graph: &str,
        query: &str,
        params: &Params,
    ) -> Result<QueryResult, GqlError> {
        let prepared = self.prepare(query)?;
        if !prepared.has_return() {
            return Err(GqlError::missing_return(query));
        }
        self.execute_prepared_with(graph, &prepared, params)
    }

    /// §6.6 graph projection: the subgraph of `graph` induced by all
    /// elements a match row binds (nodes, edges, groups, and paths), as a
    /// new property graph. Edge endpoints are included even when only the
    /// edge was bound.
    pub fn project_graph(&self, graph: &str, row: &MatchRow) -> Result<PropertyGraph, GqlError> {
        let g = self.graph_of(graph)?;
        let mut nodes: Vec<property_graph::NodeId> = Vec::new();
        let mut edges: Vec<property_graph::EdgeId> = Vec::new();
        let add_el = |el: ElementId, nodes: &mut Vec<_>, edges: &mut Vec<_>| match el {
            ElementId::Node(n) => {
                if !nodes.contains(&n) {
                    nodes.push(n);
                }
            }
            ElementId::Edge(e) => {
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
        };
        for value in row.values.values() {
            match value {
                BoundValue::Node(n) => add_el(ElementId::Node(*n), &mut nodes, &mut edges),
                BoundValue::Edge(e) => add_el(ElementId::Edge(*e), &mut nodes, &mut edges),
                BoundValue::NodeGroup(ns) => {
                    for n in ns {
                        add_el(ElementId::Node(*n), &mut nodes, &mut edges);
                    }
                }
                BoundValue::EdgeGroup(es) => {
                    for e in es {
                        add_el(ElementId::Edge(*e), &mut nodes, &mut edges);
                    }
                }
                BoundValue::Path(p) => {
                    for n in p.nodes() {
                        add_el(ElementId::Node(*n), &mut nodes, &mut edges);
                    }
                    for e in p.edges() {
                        add_el(ElementId::Edge(*e), &mut nodes, &mut edges);
                    }
                }
            }
        }
        // Close over edge endpoints.
        for &e in &edges {
            let (s, d) = g.edge(e).endpoints.pair();
            if !nodes.contains(&s) {
                nodes.push(s);
            }
            if !nodes.contains(&d) {
                nodes.push(d);
            }
        }
        nodes.sort();
        edges.sort();

        // Names are unique in `g`, so adding its elements cannot fail.
        let copy_err = |e: property_graph::GraphError| GqlError::Host(e.to_string());
        let mut out = PropertyGraph::new();
        let mut map = BTreeMap::new();
        for n in nodes {
            let data = g.node(n);
            let id = out
                .try_add_node(
                    &data.name,
                    data.labels.iter().cloned(),
                    data.properties.clone(),
                )
                .map_err(copy_err)?;
            map.insert(n, id);
        }
        for e in edges {
            let data = g.edge(e);
            let (s, d) = data.endpoints.pair();
            let endpoints = if data.endpoints.is_directed() {
                property_graph::Endpoints::directed(map[&s], map[&d])
            } else {
                property_graph::Endpoints::undirected(map[&s], map[&d])
            };
            out.try_add_edge(
                &data.name,
                endpoints,
                data.labels.iter().cloned(),
                data.properties.clone(),
            )
            .map_err(copy_err)?;
        }
        Ok(out)
    }

    /// Convenience: run a `MATCH` (no `RETURN`) and get the raw binding
    /// rows, e.g. to feed [`Session::project_graph`]. Plans are cached
    /// like in [`Session::execute`].
    pub fn match_bindings(&self, graph: &str, query: &str) -> Result<Vec<MatchRow>, GqlError> {
        let prepared = self.prepare(query)?;
        if prepared.has_return() {
            return Err(GqlError::Host(
                "match_bindings takes a bare MATCH; use execute for RETURN statements".to_owned(),
            ));
        }
        self.match_prepared_with(graph, &prepared, &Params::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpml_datagen::fig1;

    fn session() -> Session {
        let mut s = Session::new();
        s.register("bank", fig1());
        s
    }

    #[test]
    fn plan_cache_hits_share_the_compiled_plan() {
        let s = session();
        let text = "MATCH (a:Account)-[t:Transfer]->(b) RETURN b.owner AS r ORDER BY r";
        let first = s.prepare(text).unwrap();
        let second = s.prepare(text).unwrap();
        assert!(std::ptr::eq(first.plan(), second.plan()));
        // The one-shot path hits the same cache entry.
        s.execute("bank", text).unwrap();
        assert_eq!(s.plan_cache_stats().len, 1);
        assert!(std::ptr::eq(first.plan(), s.prepare(text).unwrap().plan()));
    }

    #[test]
    fn figure4_query_in_gql() {
        // The running example: fraudulent accounts in Ankh-Morpork (§3/§4).
        let s = session();
        let r = s
            .execute(
                "bank",
                "MATCH (x:Account)-[:isLocatedIn]->(g:City)<-[:isLocatedIn]-(y:Account), \
                 ANY (x)-[e:Transfer]->+(y) \
                 WHERE x.isBlocked='no' AND y.isBlocked='yes' AND g.name='Ankh-Morpork' \
                 RETURN x.owner AS A, y.owner AS B ORDER BY A",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["A", "B"]);
        assert_eq!(
            r.rows,
            vec![
                vec![
                    GqlValue::Scalar(Value::str("Aretha")),
                    GqlValue::Scalar(Value::str("Jay"))
                ],
                vec![
                    GqlValue::Scalar(Value::str("Dave")),
                    GqlValue::Scalar(Value::str("Jay"))
                ],
            ]
        );
    }

    #[test]
    fn returns_paths_as_values() {
        let s = session();
        let r = s
            .execute(
                "bank",
                "MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->* \
                 (b WHERE b.owner='Aretha') RETURN p",
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], GqlValue::Path("path(a6,t5,a3,t2,a2)".into()));
    }

    #[test]
    fn returns_elements_and_groups() {
        let s = session();
        let r = s
            .execute(
                "bank",
                "MATCH ANY (a WHERE a.owner='Dave')-[e:Transfer]->+(b WHERE b.owner='Aretha') \
                 RETURN a, e, COUNT(e) AS hops",
            )
            .unwrap();
        assert_eq!(r.get(0, "a"), Some(&GqlValue::Element("a6".into())));
        assert_eq!(
            r.get(0, "e"),
            Some(&GqlValue::Group(vec!["t5".into(), "t2".into()]))
        );
        assert_eq!(r.get(0, "hops"), Some(&GqlValue::Scalar(Value::Int(2))));
    }

    #[test]
    fn distinct_order_skip_limit() {
        let s = session();
        let r = s
            .execute(
                "bank",
                "MATCH (x:Account)-[t:Transfer]->() \
                 RETURN DISTINCT x.owner AS o ORDER BY o",
            )
            .unwrap();
        // Senders: a1,a2,a3(×2),a4,a5,a6(×2) → 6 distinct.
        assert_eq!(r.len(), 6);
        assert_eq!(r.get(0, "o"), Some(&GqlValue::Scalar(Value::str("Aretha"))));

        let r = s
            .execute(
                "bank",
                "MATCH (x:Account)-[t:Transfer]->() \
                 RETURN DISTINCT x.owner AS o ORDER BY o DESC SKIP 1 LIMIT 2",
            )
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0, "o"), Some(&GqlValue::Scalar(Value::str("Mike"))));
        assert_eq!(r.get(1, "o"), Some(&GqlValue::Scalar(Value::str("Jay"))));
    }

    #[test]
    fn graph_projection_builds_subgraph() {
        let s = session();
        let rows = s
            .match_bindings(
                "bank",
                "MATCH p = (a WHERE a.owner='Dave')-[t:Transfer]->(b)-[u:Transfer]->(c)",
            )
            .unwrap();
        assert!(!rows.is_empty());
        let sub = s.project_graph("bank", &rows[0]).unwrap();
        // Three nodes, two edges, names preserved.
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.node_by_name("a6").is_some());
        assert!(sub.validate().is_ok());
        // Properties survive the projection.
        let a6 = sub.node_by_name("a6").unwrap();
        assert_eq!(sub.node(a6).property("owner"), &Value::str("Dave"));
    }

    #[test]
    fn session_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        // And usable from a scoped thread for read-only querying.
        let s = session();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| s.execute("bank", "MATCH (x:Account) RETURN x.owner AS o"));
            assert_eq!(handle.join().unwrap().unwrap().len(), 6);
        });
    }

    #[test]
    fn plan_cache_hits_on_replay() {
        let s = session();
        let q = "MATCH (x:Account) RETURN x.owner AS o ORDER BY o";
        let first = s.execute("bank", q).unwrap();
        let second = s.execute("bank", q).unwrap();
        assert_eq!(first, second);
        let stats = s.plan_cache_stats();
        assert!(stats.hits >= 1, "{stats:?}");
        assert!(stats.misses >= 1, "{stats:?}");
        assert_eq!(stats.len, 1, "{stats:?}");
        // prepare() reuses the same cached plan.
        let p = s.prepare(q).unwrap();
        assert!(p.has_return());
        assert!(s.plan_cache_stats().hits >= 2);
    }

    #[test]
    fn plan_cache_capacity_is_bounded() {
        let mut s = session();
        s.set_plan_cache_capacity(2);
        for i in 0..5 {
            let q = format!("MATCH (x:Account WHERE x.owner='o{i}') RETURN x");
            s.execute("bank", &q).unwrap();
        }
        let stats = s.plan_cache_stats();
        assert_eq!(stats.len, 2, "{stats:?}");
        assert_eq!(stats.capacity, 2, "{stats:?}");
    }

    #[test]
    fn parameterized_statement_rebinds_against_one_cached_plan() {
        // The acceptance bar for parameterized traffic: 100 distinct
        // bindings of one skeleton → one compiled plan, ≥ 99 cache hits.
        let mut s = Session::new();
        let mut g = PropertyGraph::new();
        for i in 0..100 {
            g.add_node(
                &format!("n{i}"),
                ["Account"],
                [("idx", Value::Int(i as i64))],
            );
        }
        s.register("g", g);
        let skeleton = "MATCH (x:Account WHERE x.idx = $i) RETURN x.idx AS idx";
        for i in 0..100i64 {
            let params = Params::new().with("i", i);
            let r = s.execute_with_params("g", skeleton, &params).unwrap();
            assert_eq!(r.len(), 1, "binding i={i}");
            assert_eq!(r.get(0, "idx").and_then(GqlValue::as_int), Some(i));
        }
        let stats = s.plan_cache_stats();
        assert_eq!(stats.len, 1, "one skeleton, one plan: {stats:?}");
        assert!(stats.hits >= 99, "{stats:?}");
    }

    #[test]
    fn parameters_work_in_projections_and_order_keys() {
        let s = session();
        let r = s
            .execute_with_params(
                "bank",
                "MATCH (x:Account) RETURN x.owner AS o, $tag AS tag ORDER BY o LIMIT 1",
                &Params::new().with("tag", "run-7"),
            )
            .unwrap();
        assert_eq!(
            r.get(0, "tag"),
            Some(&GqlValue::Scalar(Value::str("run-7")))
        );
    }

    #[test]
    fn parameter_errors_are_typed_gql_errors() {
        let s = session();
        let q = "MATCH (x:Account WHERE x.owner = $owner) RETURN x";
        // Unbound.
        assert!(matches!(
            s.execute("bank", q),
            Err(GqlError::Eval(gpml_core::Error::UnboundParameter { ref name })) if name == "owner"
        ));
        // Extra.
        let extra = Params::new().with("owner", "Dave").with("ghost", 1);
        assert!(matches!(
            s.execute_with_params("bank", q, &extra),
            Err(GqlError::Eval(gpml_core::Error::UnusedParameter { ref name })) if name == "ghost"
        ));
        // Type mismatch: $min is used as a number.
        let qn = "MATCH (x:Account)-[t:Transfer]->(y) \
                  WHERE t.amount > $min AND $min > 0 RETURN x";
        assert!(matches!(
            s.execute_with_params("bank", qn, &Params::new().with("min", "big")),
            Err(GqlError::Eval(
                gpml_core::Error::ParameterTypeMismatch { ref name, .. }
            )) if name == "min"
        ));
    }

    #[test]
    fn prepared_statement_rebinds_across_executions() {
        let s = session();
        let prepared = s
            .prepare(
                "MATCH (a:Account WHERE a.owner = $owner)-[t:Transfer]->(b) \
                 RETURN b.owner AS receiver ORDER BY receiver",
            )
            .unwrap();
        let dave = s
            .execute_prepared_with("bank", &prepared, &Params::new().with("owner", "Dave"))
            .unwrap();
        let scott = s
            .execute_prepared_with("bank", &prepared, &Params::new().with("owner", "Scott"))
            .unwrap();
        assert!(!dave.is_empty());
        assert!(!scott.is_empty());
        assert_ne!(dave, scott);
        // Equivalent to inlining the literal.
        let inlined = s
            .execute(
                "bank",
                "MATCH (a:Account WHERE a.owner = 'Dave')-[t:Transfer]->(b) \
                 RETURN b.owner AS receiver ORDER BY receiver",
            )
            .unwrap();
        assert_eq!(dave, inlined);
    }

    #[test]
    fn typed_accessors_and_try_from() {
        let int = GqlValue::Scalar(Value::Int(7));
        let text = GqlValue::Scalar(Value::str("hi"));
        let flag = GqlValue::Scalar(Value::Bool(true));
        let el = GqlValue::Element("a1".into());
        assert_eq!(int.as_int(), Some(7));
        assert_eq!(int.as_f64(), Some(7.0));
        assert_eq!(text.as_str(), Some("hi"));
        assert_eq!(flag.as_bool(), Some(true));
        assert_eq!(el.as_int(), None);
        assert_eq!(el.as_str(), None);
        assert_eq!(i64::try_from(int).unwrap(), 7);
        assert_eq!(String::try_from(text).unwrap(), "hi");
        assert!(bool::try_from(flag).unwrap());
        assert!(i64::try_from(GqlValue::Scalar(Value::str("x"))).is_err());
        assert!(String::try_from(el).is_err());
    }

    #[test]
    fn query_result_display_renders_a_table() {
        let s = session();
        let r = s
            .execute(
                "bank",
                "MATCH (x:Account WHERE x.owner='Dave') RETURN x.owner AS owner",
            )
            .unwrap();
        assert_eq!(r.to_string(), "owner\nDave\n(1 rows)");
    }

    #[test]
    fn errors_are_reported() {
        let s = session();
        assert!(matches!(
            s.execute("nope", "MATCH (x) RETURN x"),
            Err(GqlError::Host(_))
        ));
        assert!(matches!(
            s.execute("bank", "MATCH (x RETURN x"),
            Err(GqlError::Parse(_))
        ));
        assert!(matches!(
            s.execute("bank", "MATCH (x)-[e]->*(y) RETURN x"),
            Err(GqlError::Eval(_))
        ));
    }

    #[test]
    fn thread_count_preserves_results() {
        let query = "MATCH (x:Account)-[e:Transfer]->(m), (m)-[f:Transfer]->(y:Account) \
                     RETURN x.owner AS a, y.owner AS b ORDER BY a, b";
        let s = session();
        let auto = s.execute("bank", query).unwrap();
        assert!(!auto.rows.is_empty());
        let mut s = session();
        s.set_threads(2);
        assert_eq!(s.options().threads, 2);
        let two = s.execute("bank", query).unwrap();
        assert_eq!(auto, two);
    }

    #[test]
    fn profiled_execution_tallies_stage_counters() {
        let s = session();
        let prepared = s
            .prepare(
                "MATCH (x:Account)-[e:Transfer]->(m), (m)-[f:Transfer]->(y:Account) \
                 RETURN x.owner AS a ORDER BY a",
            )
            .unwrap();
        let profile = ExecProfile::new(prepared.plan().stage_count());
        let r = s
            .execute_prepared_profiled("bank", &prepared, &Params::new(), &profile)
            .unwrap();
        assert_eq!(
            r,
            s.execute_prepared("bank", &prepared).unwrap(),
            "profiling must not change results"
        );
        let (nodes, edges, _, instrs, _) = profile.totals();
        assert!(nodes > 0 && edges > 0, "{:?}", profile.totals());
        assert!(instrs > 0, "flat engine dispatched no instructions");
    }
}
