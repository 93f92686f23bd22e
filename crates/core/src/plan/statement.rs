//! The hosts' shared runtime: a [`Statement`] is a prepared pattern plus
//! the [`Projection`] that turns its path bindings into a table (§6.6,
//! Figure 9).
//!
//! GQL's `RETURN [DISTINCT] … [ORDER BY …] [SKIP n] [LIMIT n]` and
//! SQL/PGQ's `COLUMNS ( … )` both fill one [`Projection`], and
//! [`Statement::run`] evaluates it the same way for both. A host supplies
//! only the cell type and how a bare variable's element, group or path
//! binding renders into it.

use std::collections::BTreeSet;
use std::sync::Arc;

use property_graph::{PropertyGraph, Value};

use super::{prepare, ExecutablePlan, PreparedQuery};
use crate::ast::{Expr, GraphPattern};
use crate::binding::{BoundValue, MatchRow};
use crate::error::Result;
use crate::eval::filter::{self, Scope};
use crate::eval::flat::FlatProgram;
use crate::eval::{EvalOptions, ExecProfile};
use crate::params::Params;

/// A host's projection clause: the items, in column order, and the row
/// shaping applied after them.
#[derive(Clone, Debug, Default)]
pub struct Projection {
    /// `(expr, alias)` per output column.
    pub items: Vec<(Expr, String)>,
    /// `(key, ascending)` per `ORDER BY` key, an alias already resolved
    /// to its item's expression.
    pub order: Vec<(Expr, bool)>,
    /// `DISTINCT`: drop repeated rows, keeping the first.
    pub distinct: bool,
    /// `SKIP n`.
    pub skip: Option<usize>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
}

impl Projection {
    /// Projects match rows into cell rows. Each item and each `ORDER BY`
    /// key is evaluated once per row; rows are then stable-sorted by the
    /// keys, deduplicated, skipped and limited. A bare variable renders
    /// through `bound` (an unbound conditional one is `NULL`); any other
    /// expression evaluates to a scalar.
    pub fn apply<C: From<Value> + Ord + Clone>(
        &self,
        graph: &PropertyGraph,
        rows: &[MatchRow],
        params: &Params,
        bound: impl Fn(&BoundValue) -> C,
    ) -> Vec<Vec<C>> {
        let cell = |row: &MatchRow, expr: &Expr| match expr {
            Expr::Var(v) => row.get(v).map_or_else(|| C::from(Value::Null), &bound),
            _ => C::from(filter::eval(
                graph,
                &Scope::new(&|v| row.get(v), params),
                expr,
            )),
        };
        let mut keyed: Vec<(Vec<C>, Vec<C>)> = rows
            .iter()
            .map(|row| {
                let cells = self.items.iter().map(|(e, _)| cell(row, e)).collect();
                let keys = self.order.iter().map(|(e, _)| cell(row, e)).collect();
                (cells, keys)
            })
            .collect();
        if !self.order.is_empty() {
            keyed.sort_by(|(_, a), (_, b)| {
                a.iter()
                    .zip(b)
                    .zip(&self.order)
                    .map(|((x, y), (_, ascending))| if *ascending { x.cmp(y) } else { y.cmp(x) })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        let mut cells: Vec<Vec<C>> = keyed.into_iter().map(|(c, _)| c).collect();
        if self.distinct {
            let mut seen = BTreeSet::new();
            cells.retain(|row| seen.insert(row.clone()));
        }
        cells.drain(..self.skip.unwrap_or(0).min(cells.len()));
        if let Some(n) = self.limit {
            cells.truncate(n);
        }
        cells
    }
}

/// A compiled host statement: the prepared pattern and, unless it is a
/// bare `MATCH`, its projection. Prepared once, it runs against any
/// number of graphs; plan and projection are shared, so a clone (a
/// plan-cache hit) is two reference-count bumps.
#[derive(Clone)]
pub struct Statement {
    query: PreparedQuery,
    projection: Option<Arc<Projection>>,
}

impl Statement {
    /// Lowers `pattern` and attaches `projection`. The `$name`
    /// parameters of its items and keys become slots of the plan too, so
    /// bind-time validation covers the whole statement.
    pub fn prepare(
        pattern: &GraphPattern,
        projection: Option<Projection>,
        opts: &EvalOptions,
    ) -> Result<Statement> {
        let mut query = prepare(pattern, opts)?;
        if let Some(p) = &projection {
            for expr in p
                .items
                .iter()
                .map(|(e, _)| e)
                .chain(p.order.iter().map(|(e, _)| e))
            {
                query.declare_params_in(expr);
            }
        }
        Ok(Statement {
            query,
            projection: projection.map(Arc::new),
        })
    }

    /// The prepared pattern.
    pub fn query(&self) -> &PreparedQuery {
        &self.query
    }

    /// The lowered pattern plan (EXPLAIN it via its `Display`).
    pub fn plan(&self) -> &ExecutablePlan {
        self.query.plan()
    }

    /// The flat program of each path stage, in declaration order.
    pub fn stage_programs(&self) -> Vec<&FlatProgram> {
        self.query.plan().stage_programs()
    }

    /// The EXPLAIN rendering annotated with the cost model's per-stage
    /// cardinality estimates, stage order, and join algorithms for
    /// `graph`.
    pub fn explain_for(&self, graph: &PropertyGraph) -> String {
        self.query.explain_for(graph)
    }

    /// [`Self::explain_for`] under parameter bindings: estimates use the
    /// bound constants, matching what a run with them would do.
    pub fn explain_with(&self, graph: &PropertyGraph, params: &Params) -> String {
        self.query.explain_with(graph, params)
    }

    /// True when the statement projects a table (GQL `RETURN`, SQL/PGQ
    /// `COLUMNS`) rather than being a bare `MATCH`.
    pub fn has_return(&self) -> bool {
        self.projection.is_some()
    }

    /// The output column names, in order (none for a bare `MATCH`).
    pub fn columns(&self) -> Vec<String> {
        let items = self.projection.iter().flat_map(|p| &p.items);
        items.map(|(_, alias)| alias.clone()).collect()
    }

    /// Matches `graph` under `params`, tallying into `profile` when
    /// given, and projects the rows through [`Projection::apply`]. A bare
    /// `MATCH` projects no columns.
    pub fn run<C: From<Value> + Ord + Clone>(
        &self,
        graph: &PropertyGraph,
        params: &Params,
        profile: Option<&ExecProfile>,
        bound: impl Fn(&BoundValue) -> C,
    ) -> Result<Vec<Vec<C>>> {
        let matches = match profile {
            Some(p) => self.query.execute_with_profile(graph, params, p)?,
            None => self.query.execute_with(graph, params)?,
        };
        Ok(match &self.projection {
            Some(p) => p.apply(graph, &matches.rows, params, bound),
            None => vec![Vec::new(); matches.len()],
        })
    }
}
