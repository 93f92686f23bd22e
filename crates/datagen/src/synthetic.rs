//! Seeded synthetic workloads for benchmarks and property tests.
//!
//! All generators are deterministic in their parameters (and seed, where
//! randomness is involved) so that benchmark runs and failing property-test
//! cases are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use property_graph::{Endpoints, NodeId, PropertyGraph, Value};

/// A directed chain `n0 → n1 → ... → n_{len}` of `Transfer` edges between
/// `Account` nodes (so `len + 1` nodes, `len` edges).
pub fn chain(len: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let nodes: Vec<NodeId> = (0..=len)
        .map(|i| {
            g.add_node(
                &format!("n{i}"),
                ["Account"],
                [
                    ("owner", Value::str(format!("owner{i}"))),
                    ("isBlocked", Value::str(if i == len { "yes" } else { "no" })),
                ],
            )
        })
        .collect();
    for i in 0..len {
        g.add_edge(
            &format!("t{i}"),
            Endpoints::directed(nodes[i], nodes[i + 1]),
            ["Transfer"],
            [("amount", Value::Int(1_000_000 * (i as i64 + 1)))],
        );
    }
    g
}

/// A directed cycle of `len` nodes (`len` edges). Cycles are what make
/// unrestricted pattern matching non-terminating (§5), so they are the
/// core stressor for restrictor and selector benchmarks.
pub fn cycle(len: usize) -> PropertyGraph {
    assert!(len >= 1, "a cycle needs at least one node");
    let mut g = PropertyGraph::new();
    let nodes: Vec<NodeId> = (0..len)
        .map(|i| {
            g.add_node(
                &format!("n{i}"),
                ["Account"],
                [("owner", Value::str(format!("owner{i}")))],
            )
        })
        .collect();
    for i in 0..len {
        g.add_edge(
            &format!("t{i}"),
            Endpoints::directed(nodes[i], nodes[(i + 1) % len]),
            ["Transfer"],
            [("amount", Value::Int(1_000_000))],
        );
    }
    g
}

/// A `w × h` grid with directed edges rightwards and downwards — many
/// same-length shortest paths between corners, the worst case for
/// `ALL SHORTEST`.
pub fn grid(w: usize, h: usize) -> PropertyGraph {
    assert!(w >= 1 && h >= 1);
    let mut g = PropertyGraph::new();
    let mut ids = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            ids.push(g.add_node(&format!("n{x}_{y}"), ["Cell"], []));
        }
    }
    let at = |x: usize, y: usize| ids[y * w + x];
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                g.add_edge(
                    &format!("r{x}_{y}"),
                    Endpoints::directed(at(x, y), at(x + 1, y)),
                    ["Step"],
                    [],
                );
            }
            if y + 1 < h {
                g.add_edge(
                    &format!("d{x}_{y}"),
                    Endpoints::directed(at(x, y), at(x, y + 1)),
                    ["Step"],
                    [],
                );
            }
        }
    }
    g
}

/// Parameters for [`transfer_network`].
#[derive(Clone, Copy, Debug)]
pub struct TransferNetworkConfig {
    /// Number of accounts.
    pub accounts: usize,
    /// Number of random transfer edges.
    pub transfers: usize,
    /// Fraction (0.0–1.0) of blocked accounts.
    pub blocked_share: f64,
    /// RNG seed; equal seeds give equal graphs.
    pub seed: u64,
}

impl Default for TransferNetworkConfig {
    fn default() -> Self {
        TransferNetworkConfig {
            accounts: 100,
            transfers: 300,
            blocked_share: 0.1,
            seed: 42,
        }
    }
}

/// A random bank-transfer network in the style of Figure 1: `Account`
/// nodes (some blocked), directed `Transfer` edges with random amounts,
/// a handful of places, phones shared between accounts, and IP sign-ins.
pub fn transfer_network(cfg: TransferNetworkConfig) -> PropertyGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = PropertyGraph::new();

    let accounts: Vec<NodeId> = (0..cfg.accounts)
        .map(|i| {
            let blocked = rng.gen_bool(cfg.blocked_share);
            g.add_node(
                &format!("a{i}"),
                ["Account"],
                [
                    ("owner", Value::str(format!("owner{i}"))),
                    ("isBlocked", Value::str(if blocked { "yes" } else { "no" })),
                ],
            )
        })
        .collect();

    let cities = ["Ankh-Morpork", "Zembla", "Llamedos"];
    let places: Vec<NodeId> = cities
        .iter()
        .enumerate()
        .map(|(i, name)| {
            g.add_node(
                &format!("c{i}"),
                ["City", "Country"],
                [("name", Value::str(*name))],
            )
        })
        .collect();
    for (i, &a) in accounts.iter().enumerate() {
        let c = places[rng.gen_range(0..places.len())];
        g.add_edge(
            &format!("li{i}"),
            Endpoints::directed(a, c),
            ["isLocatedIn"],
            [],
        );
    }

    for i in 0..cfg.transfers {
        let s = accounts[rng.gen_range(0..accounts.len())];
        let d = accounts[rng.gen_range(0..accounts.len())];
        let amount = rng.gen_range(1..=20i64) * 1_000_000;
        g.add_edge(
            &format!("t{i}"),
            Endpoints::directed(s, d),
            ["Transfer"],
            [
                ("amount", Value::Int(amount)),
                ("date", Value::str(format!("{}/1/2020", 1 + i % 12))),
            ],
        );
    }

    // One phone per two accounts, shared — the §4.2 same-phone scenario.
    let phones = (cfg.accounts / 2).max(1);
    for p in 0..phones {
        let phone = g.add_node(
            &format!("p{p}"),
            ["Phone"],
            [
                ("number", Value::Int(p as i64)),
                (
                    "isBlocked",
                    Value::str(if rng.gen_bool(0.05) { "yes" } else { "no" }),
                ),
            ],
        );
        for (j, &a) in accounts.iter().enumerate().filter(|(j, _)| j % phones == p) {
            g.add_edge(
                &format!("hp{p}_{j}"),
                Endpoints::undirected(a, phone),
                ["hasPhone"],
                [],
            );
        }
    }
    g
}

/// A random graph and pattern workload for engine-equivalence property
/// tests: a small dense graph with mixed directed/undirected edges, two
/// labels, and integer weights. Nodes also carry a string `k`
/// (`k0`–`k2`) and a boolean `b`, set by position so the random draws
/// stay those of the weights and edges: the equality-indexed types.
pub fn small_mixed(seed: u64, nodes: usize, edges: usize) -> PropertyGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = PropertyGraph::new();
    let ids: Vec<NodeId> = (0..nodes.max(1))
        .map(|i| {
            let label = if rng.gen_bool(0.5) { "A" } else { "B" };
            g.add_node(
                &format!("n{i}"),
                [label],
                [
                    ("w", Value::Int(rng.gen_range(0..5))),
                    ("k", Value::str(format!("k{}", i % 3))),
                    ("b", Value::Bool(i % 2 == 0)),
                ],
            )
        })
        .collect();
    for i in 0..edges {
        let u = ids[rng.gen_range(0..ids.len())];
        let v = ids[rng.gen_range(0..ids.len())];
        let ep = if rng.gen_bool(0.7) {
            Endpoints::directed(u, v)
        } else {
            Endpoints::undirected(u, v)
        };
        let label = if rng.gen_bool(0.6) { "T" } else { "U" };
        g.add_edge(
            &format!("e{i}"),
            ep,
            [label],
            [("w", Value::Int(rng.gen_range(0..5)))],
        );
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let g = chain(5);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert!(g.validate().is_ok());
        // Endpoint degrees.
        assert_eq!(g.out_degree(NodeId(0)), 1);
        assert_eq!(g.out_degree(NodeId(5)), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        for n in g.nodes() {
            assert_eq!(g.out_degree(n), 1);
        }
        assert!(g.validate().is_ok());
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 2);
        assert_eq!(g.node_count(), 6);
        // Right edges: 2 per row × 2 rows; down edges: 3.
        assert_eq!(g.edge_count(), 2 * 2 + 3);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn transfer_network_is_seed_deterministic() {
        let cfg = TransferNetworkConfig {
            accounts: 20,
            transfers: 40,
            ..Default::default()
        };
        let g1 = transfer_network(cfg);
        let g2 = transfer_network(cfg);
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        for e in g1.edges() {
            assert_eq!(g1.edge(e).endpoints, g2.edge(e).endpoints);
            assert_eq!(g1.edge(e).properties, g2.edge(e).properties);
        }
        let g3 = transfer_network(TransferNetworkConfig { seed: 43, ..cfg });
        let same = g1
            .edges()
            .all(|e| g1.edge(e).endpoints == g3.edge(e).endpoints);
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn transfer_network_census() {
        let cfg = TransferNetworkConfig {
            accounts: 30,
            transfers: 50,
            blocked_share: 0.5,
            seed: 7,
        };
        let g = transfer_network(cfg);
        let accounts = g
            .nodes()
            .filter(|n| g.node(*n).has_label("Account"))
            .count();
        assert_eq!(accounts, 30);
        let transfers = g
            .edges()
            .filter(|e| g.edge(*e).has_label("Transfer"))
            .count();
        assert_eq!(transfers, 50);
        let blocked = g
            .nodes()
            .filter(|n| g.node(*n).property("isBlocked") == &Value::str("yes"))
            .count();
        assert!(blocked > 0, "with 50% share some accounts are blocked");
        assert!(g.validate().is_ok());
    }

    #[test]
    fn small_mixed_is_valid_and_deterministic() {
        let g1 = small_mixed(9, 6, 12);
        let g2 = small_mixed(9, 6, 12);
        assert_eq!(g1.node_count(), 6);
        assert_eq!(g1.edge_count(), 12);
        assert!(g1.validate().is_ok());
        for e in g1.edges() {
            assert_eq!(g1.edge(e).endpoints, g2.edge(e).endpoints);
        }
    }
}
