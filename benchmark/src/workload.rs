//! The five workloads: what the server is booted on, what is sent to it,
//! and why each exists. Everything random derives from `--seed`; the
//! server only ever receives the generated inputs.

use gpml_core::Params;
use gpml_datagen::{transfer_network, TransferNetworkConfig};
use gpml_storage::Mutation;
use property_graph::{PropertyGraph, Value};

/// splitmix64: a std-only seeded generator, so the harness does not lean
/// on the repository's `rand` stand-in.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// How the server gets its graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boot {
    /// `--graph network:N,M,SEED`, in memory.
    Network,
    /// `--graph csv:DIR`: tables plus `CREATE PROPERTY GRAPH` DDL written
    /// by the harness, so the SQL/PGQ view path builds the graph.
    Csv,
    /// `--graph network:N,M,SEED --data-dir DIR` over a harness-built
    /// journal: boot replays the WAL, commits append and fsync.
    Durable,
}

/// The key space a workload's requests are drawn from, visited in a
/// seeded permutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keys {
    /// Every account's owner.
    Owners,
    /// This many `(owner, amount threshold)` pairs, so this many distinct
    /// statement texts.
    Texts(usize),
    /// This many owners from the lower half of the id space. The writer
    /// only touches the upper half, so read answers never change.
    HotLowerHalf(usize),
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub accounts: usize,
    pub transfers: usize,
    pub boot: Boot,
    pub keys: Keys,
    /// `PREPARE` once and `EXECUTE` per request, or one-shot `QUERY`.
    pub prepared: bool,
    /// The statement, with `{owner}` / `{amount}` holes when not prepared.
    pub statement: &'static str,
    /// False when the statement has no total `ORDER BY`: rows are sorted
    /// before digesting, because their order is then not part of the answer.
    pub ordered: bool,
    /// The paced writer runs beside one reader during the window; otherwise
    /// two readers, and the writer probes the idle server afterwards.
    pub writer_in_window: bool,
}

const LOOKUP: &str = "MATCH (x:Account WHERE x.owner=$owner)-[t:Transfer]->(y:Account) \
                      RETURN y.owner AS r, t.amount AS a ORDER BY r, a";
const LOOKUP_INLINE: &str = "MATCH (x:Account WHERE x.owner='{owner}')-[t:Transfer]->(y:Account) \
                             RETURN y.owner AS r, t.amount AS a ORDER BY r, a";
const ADHOC: &str = "MATCH TRAIL (x:Account WHERE x.owner='{owner}')\
                     -[t:Transfer WHERE t.amount>{amount}M]->{1,3}(y:Account), \
                     (y)-[:isLocatedIn]->(c:City) RETURN y.owner AS r, c.name AS c ORDER BY r";
const PATH: &str = "MATCH ANY SHORTEST (x:Account WHERE x.owner=$owner)-[:Transfer]->+\
                    (y:Account WHERE y.isBlocked='yes') RETURN y.owner AS r";
const JOIN: &str = "MATCH (x:Account WHERE x.owner=$owner)-[:Transfer]->(m:Account), \
                    (m)-[:Transfer]->(z:Account), (z)-[:isLocatedIn]->(c:City) \
                    RETURN z.owner AS b, c.name AS c";

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "point_lookup",
        why: "prepared 1-hop lookup on 200 accounts: all caches hit, matching is a third of the request, so server framing/queueing and gql bind/project/encode dominate",
        accounts: 200,
        transfers: 600,
        boot: Boot::Network,
        keys: Keys::Owners,
        prepared: true,
        statement: LOOKUP,
        ordered: true,
        writer_in_window: false,
    },
    Spec {
        name: "adhoc_compile",
        why: "one-shot QUERY over 4096 distinct texts, 32x the 128-entry plan cache: every request parses, plans and costs; prepared workloads bypass all three",
        accounts: 200,
        transfers: 600,
        boot: Boot::Network,
        keys: Keys::Texts(ADHOC_TEXTS),
        prepared: false,
        statement: ADHOC,
        ordered: true,
        writer_in_window: false,
    },
    Spec {
        name: "path_search",
        why: "prepared ANY SHORTEST over an unbounded quantifier on 2000 accounts: nearly all time is the matcher and selector search, server and compile are noise",
        accounts: 2000,
        transfers: 6000,
        boot: Boot::Network,
        keys: Keys::Owners,
        prepared: true,
        statement: PATH,
        ordered: false,
        writer_in_window: false,
    },
    Spec {
        name: "join_multi",
        why: "prepared three-pattern join on the 2000-account data booted through csv: + CREATE PROPERTY GRAPH: stage ordering and joins dominate; its setup is the SQL/PGQ view path",
        accounts: 2000,
        transfers: 6000,
        boot: Boot::Csv,
        keys: Keys::Owners,
        prepared: true,
        statement: JOIN,
        ordered: false,
        writer_in_window: false,
    },
    Spec {
        name: "mixed_rw",
        why: "durable server: one reader on 32 hot one-shot lookups beside a writer paced at 20 commits/s; only here do storage commits and epoch-keyed cache invalidation cost anything",
        accounts: 2000,
        transfers: 6000,
        boot: Boot::Durable,
        keys: Keys::HotLowerHalf(HOT_TEXTS),
        prepared: false,
        statement: LOOKUP_INLINE,
        ordered: true,
        writer_in_window: true,
    },
];

/// Distinct statement texts of `adhoc_compile`: 32 plan caches' worth.
pub const ADHOC_TEXTS: usize = 4096;
/// Hot statement texts of `mixed_rw`: a quarter of the plan cache.
pub const HOT_TEXTS: usize = 32;
/// The writer's open-loop rate.
pub const COMMIT_RATE_HZ: u64 = 20;
/// A transaction deletes the edge inserted this many transactions before,
/// so the graph's size is stationary once that many have run.
pub const SLIDING_DISTANCE: u64 = 64;
/// Commits in the journal `mixed_rw` boots from: the sliding window is
/// already full, and boot pays a WAL replay.
pub const JOURNAL_COMMITS: u64 = 128;
const _: () = assert!(JOURNAL_COMMITS >= SLIDING_DISTANCE);

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One request as a client sends it: bindings for the prepared statement,
/// or a one-shot statement text.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Execute(Params),
    Query(String),
}

/// A workload instantiated under a seed.
pub struct Workload {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Visit order of the key space (owners, or text ids).
    order: Vec<usize>,
}

impl Workload {
    pub fn new(spec: &'static Spec, seed: u64) -> Workload {
        let mut rng = Rng::new(seed ^ 0x6770_6d6c_6462_656e);
        let order = match spec.keys {
            Keys::Owners => rng.permutation(spec.accounts),
            Keys::Texts(n) => rng.permutation(n),
            Keys::HotLowerHalf(n) => {
                let mut lower = rng.permutation(spec.accounts / 2);
                lower.truncate(n);
                lower
            }
        };
        Workload { spec, seed, order }
    }

    /// The boot graph — exactly what `--graph network:N,M,SEED` builds.
    pub fn boot_graph(&self) -> PropertyGraph {
        transfer_network(TransferNetworkConfig {
            accounts: self.spec.accounts,
            transfers: self.spec.transfers,
            blocked_share: 0.1,
            seed: self.seed,
        })
    }

    pub fn graph_spec(&self) -> String {
        format!(
            "network:{},{},{}",
            self.spec.accounts, self.spec.transfers, self.seed
        )
    }

    /// The `i`-th request of the workload's single global sequence. Reader
    /// `c` of `n` sends `c, c+n, c+2n, …`; the traced replay sends `0, 1, 2, …`.
    pub fn request(&self, i: usize) -> Request {
        let key = self.order[i % self.order.len()];
        if self.spec.prepared {
            return Request::Execute(Params::new().with("owner", format!("owner{key}")));
        }
        Request::Query(self.text(key))
    }

    /// Statement text for one key: `(owner, amount threshold)` pairs are
    /// enumerated owner first, so distinct keys give distinct texts, and a
    /// key below the account count is just an owner.
    fn text(&self, key: usize) -> String {
        let (owner, amount) = (key % self.spec.accounts, key / self.spec.accounts);
        self.spec
            .statement
            .replace("{owner}", &format!("owner{owner}"))
            .replace("{amount}", &amount.to_string())
    }

    /// Number of distinct requests before the sequence repeats.
    pub fn distinct(&self) -> usize {
        self.order.len()
    }

    /// The writer's `s`-th transaction: insert one `Transfer` between two
    /// upper-half accounts and delete the one inserted
    /// [`SLIDING_DISTANCE`] transactions earlier.
    pub fn transaction(&self, s: u64) -> Vec<Mutation> {
        let mut rng = Rng::new(self.seed.wrapping_mul(0x1000_0000_01b3) ^ s);
        let half = self.spec.accounts / 2;
        let mut pick = || format!("a{}", half + rng.below(half));
        let mut batch = vec![Mutation::AddEdge {
            name: edge_name(s),
            src: pick(),
            dst: pick(),
            directed: true,
            labels: vec!["Transfer".to_owned()],
            properties: vec![
                ("amount".to_owned(), Value::Int(1_000_000)),
                ("seq".to_owned(), Value::Int(s as i64)),
            ],
        }];
        if s >= SLIDING_DISTANCE {
            batch.push(Mutation::Delete {
                element: edge_name(s - SLIDING_DISTANCE),
            });
        }
        batch
    }
}

fn edge_name(s: u64) -> String {
    format!("bx{s}")
}

/// Sequence numbers of the writer's edges that must be present after
/// transactions `0..committed` — and no others may be.
pub fn live_window(committed: u64) -> std::ops::Range<u64> {
    committed.saturating_sub(SLIDING_DISTANCE)..committed
}

/// Lists the writer's live edges by sequence number; element order is the
/// sequence, so the answer is one canonical list.
pub const LIVE_EDGES_QUERY: &str =
    "MATCH (x:Account)-[t:Transfer WHERE t.seq >= 0]->(y:Account) RETURN t.seq AS s ORDER BY s";

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn texts(seed: u64) -> Vec<String> {
        let w = Workload::new(spec("adhoc_compile").unwrap(), seed);
        (0..w.distinct())
            .map(|i| match w.request(i) {
                Request::Query(text) => text,
                other => panic!("adhoc_compile sends QUERY, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn adhoc_texts_are_pairwise_distinct_and_the_order_is_seeded() {
        let a = texts(1);
        assert_eq!(a.len(), ADHOC_TEXTS);
        assert_eq!(a.iter().collect::<BTreeSet<_>>().len(), ADHOC_TEXTS);
        // Same seed, same visit order; another seed, the same set reordered.
        assert_eq!(a, texts(1));
        let b = texts(2);
        assert_ne!(a, b);
        assert_eq!(
            a.iter().collect::<BTreeSet<_>>(),
            b.iter().collect::<BTreeSet<_>>()
        );
        // The sequence wraps instead of running out.
        let w = Workload::new(spec("adhoc_compile").unwrap(), 1);
        assert_eq!(w.request(0), w.request(ADHOC_TEXTS));
    }

    #[test]
    fn every_statement_parses_and_plans() {
        for s in &SPECS {
            let w = Workload::new(s, 3);
            let text = match w.request(0) {
                Request::Query(text) => text,
                Request::Execute(_) => s.statement.to_owned(),
            };
            let session = gql::Session::new();
            session
                .prepare(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn mixed_rw_reads_the_lower_half_and_writes_the_upper() {
        let s = spec("mixed_rw").unwrap();
        let w = Workload::new(s, 5);
        assert_eq!(w.distinct(), HOT_TEXTS);
        for i in 0..HOT_TEXTS {
            let Request::Query(text) = w.request(i) else {
                panic!("mixed_rw sends QUERY")
            };
            let owner: usize = text
                .split("'owner")
                .nth(1)
                .and_then(|r| r.split('\'').next())
                .and_then(|n| n.parse().ok())
                .expect("an inlined owner literal");
            assert!(owner < s.accounts / 2);
        }
        for seq in [0, SLIDING_DISTANCE - 1, SLIDING_DISTANCE, 1000] {
            let batch = w.transaction(seq);
            assert_eq!(batch, w.transaction(seq), "deterministic in (seed, seq)");
            assert_eq!(batch.len(), if seq >= SLIDING_DISTANCE { 2 } else { 1 });
            let Mutation::AddEdge { src, dst, .. } = &batch[0] else {
                panic!("first mutation inserts")
            };
            for end in [src, dst] {
                let id: usize = end[1..].parse().unwrap();
                assert!((s.accounts / 2..s.accounts).contains(&id));
            }
        }
        assert_eq!(live_window(10), 0..10);
        assert_eq!(live_window(200), 200 - SLIDING_DISTANCE..200);
    }
}
