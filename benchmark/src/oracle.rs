//! The in-process reference: the same statements through `gql::Session`
//! on a graph the harness built itself, compared by digest.

use gpml_core::eval::EvalOptions;
use gpml_storage::fnv1a64;
use gql::codec::encode_result;
use gql::{PreparedGqlQuery, QueryResult, Session};
use property_graph::PropertyGraph;

use crate::workload::{Request, Spec};

/// The only evaluation options the harness ever sets: matcher threads, to
/// mirror the server's `--threads 1`.
pub fn eval_options() -> EvalOptions {
    EvalOptions {
        threads: 1,
        ..Default::default()
    }
}

/// Digest of a result as it travels: FNV-1a over its wire encoding. Rows of
/// a statement without a total `ORDER BY` are sorted first.
pub fn digest(result: &QueryResult, ordered: bool) -> u64 {
    if ordered {
        return fnv1a64(encode_result(result).as_bytes());
    }
    let mut sorted = result.clone();
    sorted.rows.sort();
    fnv1a64(encode_result(&sorted).as_bytes())
}

pub struct Oracle {
    pub session: Session,
    spec: &'static Spec,
    prepared: Option<PreparedGqlQuery>,
}

pub const GRAPH: &str = "g";

impl Oracle {
    pub fn new(spec: &'static Spec, graph: PropertyGraph) -> Oracle {
        let mut session = Session::with_options(eval_options());
        session.register(GRAPH, graph);
        let prepared = spec.prepared.then(|| {
            session
                .prepare(spec.statement)
                .expect("workload statements are well-formed")
        });
        Oracle {
            session,
            spec,
            prepared,
        }
    }

    pub fn graph(&self) -> &PropertyGraph {
        self.session.graph(GRAPH).expect("registered in new")
    }

    pub fn answer(&self, request: &Request) -> QueryResult {
        match (request, &self.prepared) {
            (Request::Execute(params), Some(p)) => {
                self.session.execute_prepared_with(GRAPH, p, params)
            }
            (Request::Query(text), _) => self.session.execute(GRAPH, text),
            (Request::Execute(_), None) => unreachable!("EXECUTE needs a prepared workload"),
        }
        .expect("generated requests never fail")
    }

    pub fn expected(&self, request: &Request) -> u64 {
        digest(&self.answer(request), self.spec.ordered)
    }
}
