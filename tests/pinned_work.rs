//! Pins the executor's absolute work: for each (graph, statement) pair,
//! the row count and the five `ExecProfile::total()` counters (nodes
//! expanded, edges traversed, rows pruned, instructions dispatched,
//! backtrack truncations), at one and at two worker threads.
//!
//! The statements are the five benchmark statements plus one per
//! interpreter feature whose bookkeeping lives on the undo trail: `?`,
//! `|+|`, `ACYCLIC`, `SIMPLE`, a prefilter deferred to a later variable,
//! and the dominance-pruned BFS (`ALL SHORTEST`, `SHORTEST 2 GROUP`). A
//! refactor of the interpreter that keeps the answers but changes how
//! much it searches shows up here as a changed number.
//!
//! A counting global allocator also pins upper bounds on the heap
//! allocations of one warm prepared execution and of encoding its
//! result, for the three prepared benchmark statements, and of the
//! first lookup after a write.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpml_suite::core::eval::{EvalOptions, ExecProfile};
use gpml_suite::core::Params;
use gpml_suite::datagen::{fig1, transfer_network, TransferNetworkConfig};
use gpml_suite::gql::codec::encode_result;
use gpml_suite::gql::Session;
use property_graph::Endpoints;

/// `System`, counting every allocation and reallocation on the calling
/// thread, so tests running in parallel keep separate counts.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// `network:ACCOUNTS,TRANSFERS,1` as the CLI builds it.
fn network(accounts: usize, transfers: usize) -> property_graph::PropertyGraph {
    transfer_network(TransferNetworkConfig {
        accounts,
        transfers,
        blocked_share: 0.1,
        seed: 1,
    })
}

const LOOKUP: &str = "MATCH (x:Account WHERE x.owner=$owner)-[t:Transfer]->(y:Account) \
                      RETURN y.owner AS r, t.amount AS a ORDER BY r, a";
const ADHOC: &str = "MATCH TRAIL (x:Account WHERE x.owner='{owner}')\
                     -[t:Transfer WHERE t.amount>1M]->{1,3}(y:Account), \
                     (y)-[:isLocatedIn]->(c:City) RETURN y.owner AS r, c.name AS c ORDER BY r";
const PATH: &str = "MATCH ANY SHORTEST (x:Account WHERE x.owner=$owner)-[:Transfer]->+\
                    (y:Account WHERE y.isBlocked='yes') RETURN y.owner AS r";
const JOIN: &str = "MATCH (x:Account WHERE x.owner=$owner)-[:Transfer]->(m:Account), \
                    (m)-[:Transfer]->(z:Account), (z)-[:isLocatedIn]->(c:City) \
                    RETURN z.owner AS b, c.name AS c";
const LOOKUP_INLINE: &str = "MATCH (x:Account WHERE x.owner='{owner}')-[t:Transfer]->(y:Account) \
                             RETURN y.owner AS r, t.amount AS a ORDER BY r, a";
const OPTIONAL: &str = "MATCH (x:Account WHERE x.owner='{owner}') [-[t:Transfer]->(y:Account)]? \
                        RETURN x.owner AS a, y.owner AS b";
const ALTERNATION: &str = "MATCH (x:Account WHERE x.owner='{owner}') \
                           [-[:Transfer]->(y:Account) |+| -[:isLocatedIn]->(y:City)] \
                           RETURN y AS b";
const ACYCLIC: &str = "MATCH ACYCLIC (x:Account WHERE x.owner='{owner}')-[t:Transfer]->{1,4}\
                       (y:Account) RETURN y.owner AS b";
const SIMPLE: &str = "MATCH SIMPLE (x:Account WHERE x.owner='{owner}')-[t:Transfer]->{1,5}(x) \
                      RETURN x.owner AS b";
const DEFERRED: &str = "MATCH (x:Account WHERE x.owner='{owner}' AND x.isBlocked = y.isBlocked)\
                        -[t:Transfer]->(y:Account) RETURN y.owner AS b";
const ALL_SHORTEST: &str = "MATCH ALL SHORTEST (x:Account WHERE x.owner='{owner}')\
                            -[t:Transfer]->+(y:Account WHERE y.isBlocked='yes') \
                            RETURN y.owner AS b";
const SHORTEST_GROUPS: &str = "MATCH SHORTEST 2 GROUP (x:Account WHERE x.owner='{owner}')\
                               -[t:Transfer]->+(y:Account WHERE y.isBlocked='yes') \
                               RETURN y.owner AS b";

/// (graph, statement, rows, work): `{owner}` in the statement is
/// replaced by the graph's owner, and `$owner` is bound to it. `work` is
/// nodes expanded, edges traversed, rows pruned, instrs dispatched and
/// backtrack truncations.
#[rustfmt::skip]
const CASES: &[(&str, &str, usize, [u64; 5])] = &[
    ("net200", LOOKUP, 5, [1, 5, 0, 19, 0]),
    ("net200", ADHOC, 58, [69, 113, 252, 975, 59]),
    ("net200", OPTIONAL, 6, [1, 5, 0, 47, 6]),
    ("net200", ALTERNATION, 6, [2, 6, 0, 44, 1]),
    ("net200", ACYCLIC, 198, [65, 201, 0, 2113, 199]),
    ("net200", SIMPLE, 7, [200, 606, 0, 5725, 590]),
    ("net200", DEFERRED, 4, [1, 5, 0, 19, 0]),
    ("net200", ALL_SHORTEST, 43, [328, 1001, 0, 13105, 1002]),
    ("net200", SHORTEST_GROUPS, 145, [1140, 3494, 0, 45749, 3495]),
    ("net2000", PATH, 198, [1891, 5680, 0, 3789, 0]),
    ("net2000", JOIN, 12, [17, 28, 5990, 152, 0]),
    ("net2000", LOOKUP_INLINE, 4, [1, 4, 0, 16, 0]),
    ("fig1", LOOKUP, 2, [1, 2, 0, 10, 0]),
    ("fig1", ADHOC, 2, [11, 13, 9, 140, 9]),
    ("fig1", PATH, 1, [7, 10, 0, 17, 0]),
    ("fig1", JOIN, 1, [6, 8, 23, 46, 0]),
    ("fig1", LOOKUP_INLINE, 2, [1, 2, 0, 10, 0]),
    ("fig1", OPTIONAL, 3, [1, 2, 0, 26, 3]),
    ("fig1", ALTERNATION, 3, [2, 3, 0, 29, 1]),
    ("fig1", ACYCLIC, 9, [9, 12, 0, 132, 10]),
    ("fig1", SIMPLE, 1, [11, 15, 0, 150, 12]),
    ("fig1", DEFERRED, 2, [1, 2, 0, 10, 0]),
    ("fig1", ALL_SHORTEST, 1, [7, 10, 0, 142, 11]),
    ("fig1", SHORTEST_GROUPS, 2, [13, 18, 0, 247, 19]),
];

fn session(threads: usize) -> Session {
    let mut s = Session::with_options(EvalOptions {
        threads,
        ..EvalOptions::default()
    });
    s.register("fig1", fig1());
    s.register("net200", network(200, 600));
    s.register("net2000", network(2000, 6000));
    s
}

fn owner(graph: &str) -> &'static str {
    if graph == "fig1" {
        "Dave"
    } else {
        "owner7"
    }
}

#[test]
fn interpreter_work_is_pinned() {
    let mut mismatches = Vec::new();
    for threads in [1, 2] {
        let s = session(threads);
        for &(graph, statement, rows, work) in CASES {
            let owner = owner(graph);
            let text = statement.replace("{owner}", owner);
            let prepared = s.prepare(&text).unwrap();
            let params = if text.contains("$owner") {
                Params::new().with("owner", owner)
            } else {
                Params::new()
            };
            let profile = ExecProfile::new(prepared.plan().stage_count());
            let result = s
                .execute_prepared_profiled(graph, &prepared, &params, &profile)
                .unwrap();
            let got = (result.len(), profile.total().values());
            if got != (rows, work) {
                mismatches.push(format!(
                    "threads {threads}, {graph} `{statement}`: expected {:?}, got {got:?}",
                    (rows, work)
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// (graph, statement, execution bound, encoding bound): upper bounds on
/// the allocations of one warm, profiled prepared execution at one
/// thread, and of `encode_result` over its result. The counts follow
/// std's collection growth, so they are bounds, not exact figures; a
/// change that lowers a count tightens its bound.
#[rustfmt::skip]
const ALLOCATION_BOUNDS: &[(&str, &str, u64, u64)] = &[
    ("net200", LOOKUP, 158, 5),
    ("net2000", JOIN, 921, 7),
    ("net2000", PATH, 3304, 10),
];

#[test]
fn allocations_are_pinned() {
    let s = session(1);
    let mut over = Vec::new();
    for &(graph, statement, exec_bound, encode_bound) in ALLOCATION_BOUNDS {
        let prepared = s.prepare(statement).unwrap();
        let params = Params::new().with("owner", owner(graph));
        let profile = ExecProfile::new(prepared.plan().stage_count());
        let run = || {
            s.execute_prepared_profiled(graph, &prepared, &params, &profile)
                .unwrap()
        };
        // Warm-up: the graph's statistics catalog and every other
        // lazily built structure exist before the counted run.
        for _ in 0..3 {
            run();
        }
        let (exec, result) = allocations(run);
        let (encode, _) = allocations(|| encode_result(&result));
        eprintln!("{graph} `{statement}`: {exec} execution, {encode} encoding allocations");
        if exec > exec_bound || encode > encode_bound {
            over.push(format!(
                "{graph} `{statement}`: {exec} execution allocations (bound {exec_bound}), \
                 {encode} encoding allocations (bound {encode_bound})"
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}

/// The first one-stage lookup after a write, as a durable server's
/// reader meets it after each commit: a warm execution, then one
/// `add_edge` and one `remove_element` of that edge, then the counted
/// execution. The write dropped the statistics catalog, and a one-stage
/// plan has nothing to price, so the execution must not rebuild it (a
/// rebuild of the catalog of this graph makes about 54 000 allocations).
const AFTER_WRITE_BOUND: u64 = 131;

#[test]
fn first_lookup_after_a_write_builds_no_catalog() {
    let s = session(1);
    let mut g = network(2000, 6000);
    let prepared = s
        .prepare(&LOOKUP_INLINE.replace("{owner}", "owner7"))
        .unwrap();
    let run = |g: &property_graph::PropertyGraph| {
        s.execute_prepared_profiled_on(g, &prepared, &Params::new(), None)
            .unwrap()
    };
    for _ in 0..3 {
        run(&g);
    }
    let (a, b) = (g.nodes().next().unwrap(), g.nodes().last().unwrap());
    let e = g.add_edge("w1", Endpoints::directed(a, b), ["Transfer"], []);
    g.remove_element(e.into()).unwrap();
    let (exec, result) = allocations(|| run(&g));
    eprintln!("after a write: {exec} execution allocations");
    assert_eq!(result.len(), 4);
    assert!(
        exec <= AFTER_WRITE_BOUND,
        "{exec} execution allocations after a write (bound {AFTER_WRITE_BOUND})"
    );
}
