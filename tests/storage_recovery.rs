//! Crash-recovery and snapshot-isolation properties of the durable
//! storage engine (`gpml_storage`).
//!
//! The contracts under test:
//!
//! * **Acknowledged commits survive a crash.** Once `commit` returns,
//!   the batch is in the WAL; reopening the data directory — with no
//!   graceful shutdown, the in-process equivalent of `kill -9` —
//!   recovers a bit-identical graph at the same epoch.
//! * **Torn tails lose at most the unacknowledged record.** Truncating
//!   the WAL at *every byte boundary* of its final record recovers
//!   exactly the previous epoch's graph; only the full record recovers
//!   the final epoch. Nothing panics, nothing half-applies.
//! * **The statistics oracle holds under mutation.** After randomized
//!   add/set/delete sequences, no cached `GraphStats` is stale: every
//!   write drops the catalog, and whatever is cached equals a
//!   from-scratch recomputation ([`PropertyGraph::verify_stats`]).
//! * **Readers never see a half-applied batch.** A pinned snapshot is
//!   immutable while concurrent commits advance the journal.
//! * **The node index oracle holds under mutation.** The lazily built
//!   label/equality index equals a brute-force scan
//!   ([`PropertyGraph::verify_index`]), and a clone taken before a
//!   mutation keeps answering for its own graph.
//! * **Commits that reuse the spare epoch are clone-and-apply.** Random
//!   batches, failing batches and snapshots pinned across commits leave
//!   every epoch's digest equal to a reference built by cloning and
//!   applying, and never move a pinned graph.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gpml_suite::storage::{graph_digest, GraphJournal, Mutation, WAL_FILE};
use property_graph::{PropertyGraph, Value};

/// A fresh scratch directory under the system tempdir; unique per call
/// so proptest cases never collide.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gpml-recovery-{tag}-{}-{seq}", std::process::id()))
}

/// Tracks enough of the generated graph's shape to keep emitting
/// mutations that *apply cleanly* — the generator consults this, and
/// every emitted mutation is also applied to `graph` so the tracker
/// never drifts.
struct Tracker {
    graph: PropertyGraph,
    nodes: Vec<String>,
    edges: Vec<(String, String, String)>, // (edge, src, dst)
    next_node: usize,
    next_edge: usize,
}

impl Tracker {
    fn new() -> Tracker {
        Tracker {
            graph: PropertyGraph::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
            next_node: 0,
            next_edge: 0,
        }
    }

    fn degree(&self, node: &str) -> usize {
        self.edges
            .iter()
            .filter(|(_, s, d)| s == node || d == node)
            .count()
    }

    /// One random mutation that is guaranteed to apply against the
    /// current state. Mix: mostly inserts, some property writes, some
    /// deletes (edges, and nodes once isolated).
    fn random_mutation(&mut self, rng: &mut StdRng) -> Mutation {
        let owners = ["Ada", "Brin", "Cyn", "Dag"];
        let roll = rng.gen_range(0..100u32);
        // Deletes and sets need existing elements; fall through to an
        // insert when the graph is too bare for the rolled op.
        if roll < 15 && !self.edges.is_empty() {
            let i = rng.gen_range(0..self.edges.len());
            let (name, _, _) = self.edges.remove(i);
            return Mutation::Delete { element: name };
        }
        if roll < 25 {
            if let Some(i) = (0..self.nodes.len()).find(|&i| self.degree(&self.nodes[i]) == 0) {
                let name = self.nodes.remove(i);
                return Mutation::Delete { element: name };
            }
        }
        if roll < 45 && !self.nodes.is_empty() {
            let element = self.nodes[rng.gen_range(0..self.nodes.len())].clone();
            let value = match rng.gen_range(0..4u32) {
                0 => Value::Null, // removal
                1 => Value::Bool(rng.gen_bool(0.5)),
                2 => Value::Int(rng.gen_range(-100..100i64)),
                _ => Value::str(owners[rng.gen_range(0..owners.len())]),
            };
            return Mutation::SetProperty {
                element,
                key: "owner".to_owned(),
                value,
            };
        }
        if roll < 70 && self.nodes.len() >= 2 {
            let name = format!("t{}", self.next_edge);
            self.next_edge += 1;
            let src = self.nodes[rng.gen_range(0..self.nodes.len())].clone();
            let dst = self.nodes[rng.gen_range(0..self.nodes.len())].clone();
            self.edges.push((name.clone(), src.clone(), dst.clone()));
            return Mutation::AddEdge {
                name,
                src,
                dst,
                directed: rng.gen_bool(0.8),
                labels: vec!["Transfer".to_owned()],
                properties: vec![("amount".to_owned(), Value::Int(rng.gen_range(1..1000i64)))],
            };
        }
        let name = format!("a{}", self.next_node);
        self.next_node += 1;
        self.nodes.push(name.clone());
        Mutation::AddNode {
            name,
            labels: vec!["Account".to_owned()],
            properties: vec![(
                "owner".to_owned(),
                Value::str(owners[rng.gen_range(0..owners.len())]),
            )],
        }
    }

    /// A batch of 1–4 mutations, each applied to the model graph so the
    /// next batch generates against the post-batch state.
    fn random_batch(&mut self, rng: &mut StdRng) -> Vec<Mutation> {
        let len = rng.gen_range(1..=4usize);
        let mut batch = Vec::new();
        for _ in 0..len {
            let m = self.random_mutation(rng);
            m.apply(&mut self.graph)
                .expect("generator only emits applicable mutations");
            batch.push(m);
        }
        batch
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `kill -9` after the ack loses nothing: commit randomized batches,
    /// drop the journal with **no** graceful shutdown (the WAL is the
    /// only survivor), reopen the directory, and insist on the same
    /// digest at the same epoch. A mid-stream forced snapshot must not
    /// change the answer (recovery then = snapshot + WAL tail).
    #[test]
    fn acknowledged_commits_survive_ungraceful_reopen(
        seed in 0u64..1_000_000,
        batches in 2usize..10,
        snapshot_at in proptest::option::of(0usize..8),
    ) {
        let dir = scratch_dir("reopen");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tracker = Tracker::new();
        let (digest, epoch) = {
            let journal = GraphJournal::open(&dir, PropertyGraph::new(), true, u64::MAX)
                .expect("open fresh dir");
            for i in 0..batches {
                let batch = tracker.random_batch(&mut rng);
                journal.commit(&batch).expect("generated batches apply");
                if snapshot_at == Some(i) {
                    journal.force_snapshot().expect("snapshot");
                }
            }
            (graph_digest(&journal.snapshot()), journal.epoch())
            // journal dropped here: no shutdown hook, no final snapshot
        };
        let recovered = GraphJournal::open(&dir, PropertyGraph::new(), true, u64::MAX)
            .expect("reopen");
        prop_assert_eq!(recovered.epoch(), epoch);
        prop_assert_eq!(graph_digest(&recovered.snapshot()), digest);
        // The recovered graph is also bit-identical to the generator's
        // model, not merely self-consistent.
        prop_assert_eq!(graph_digest(&recovered.snapshot()), graph_digest(&tracker.graph));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncate the WAL at *every byte boundary* of its final record:
    /// any cut short of the full record recovers exactly the previous
    /// epoch (bit-identical digest), the full record recovers the final
    /// epoch, and no cut panics or half-applies.
    #[test]
    fn torn_tail_recovers_the_previous_epoch_at_every_byte(
        seed in 0u64..1_000_000,
        batches in 1usize..5,
    ) {
        let dir = scratch_dir("torn");
        let wal_path = dir.join(WAL_FILE);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tracker = Tracker::new();
        let journal = GraphJournal::open(&dir, PropertyGraph::new(), true, u64::MAX)
            .expect("open fresh dir");
        for _ in 0..batches - 1 {
            journal.commit(&tracker.random_batch(&mut rng)).expect("commit");
        }
        let prefix_digest = graph_digest(&journal.snapshot());
        let prefix_epoch = journal.epoch();
        let prefix_len = std::fs::metadata(&wal_path).expect("wal").len();
        journal.commit(&tracker.random_batch(&mut rng)).expect("tail commit");
        let full_digest = graph_digest(&journal.snapshot());
        let full_epoch = journal.epoch();
        let full_len = std::fs::metadata(&wal_path).expect("wal").len();
        drop(journal);
        let wal_bytes = std::fs::read(&wal_path).expect("read wal");

        for cut in prefix_len..=full_len {
            let scratch = scratch_dir("torn-cut");
            std::fs::create_dir_all(&scratch).expect("mkdir");
            std::fs::write(scratch.join(WAL_FILE), &wal_bytes[..cut as usize]).expect("write");
            let recovered = GraphJournal::open(&scratch, PropertyGraph::new(), true, u64::MAX)
                .expect("torn tails are tolerated, never errors");
            if cut == full_len {
                prop_assert_eq!(recovered.epoch(), full_epoch);
                prop_assert_eq!(graph_digest(&recovered.snapshot()), full_digest);
            } else {
                prop_assert_eq!(recovered.epoch(), prefix_epoch, "cut at byte {}", cut);
                prop_assert_eq!(
                    graph_digest(&recovered.snapshot()),
                    prefix_digest,
                    "cut at byte {}", cut
                );
            }
            let _ = std::fs::remove_dir_all(&scratch);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After every randomized commit — inserts, property writes, and
    /// deletes — the cached statistics catalog, if any, equals a
    /// from-scratch recomputation, on both the journal's current
    /// snapshot and the generator's model graph.
    #[test]
    fn stats_oracle_holds_after_randomized_mutations(
        seed in 0u64..1_000_000,
        batches in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tracker = Tracker::new();
        let journal = GraphJournal::in_memory(PropertyGraph::new());
        for _ in 0..batches {
            // Force the model's catalog before every batch, so the oracle
            // below catches a write that leaves it stale.
            let _ = tracker.graph.stats();
            // A clone taken before the batch shares the model's index;
            // the batch must leave the clone's answers untouched.
            let _ = tracker.graph.nodes_with_label("Account");
            let before = tracker.graph.clone();
            let probe = |g: &PropertyGraph| {
                (
                    g.nodes_with_label("Account").to_vec(),
                    g.nodes_with_prop("Account", "owner", &Value::str("Ada")).map(<[_]>::to_vec),
                    g.nodes_with_prop("Account", "owner", &Value::Bool(true)).map(<[_]>::to_vec),
                )
            };
            let before_answers = probe(&before);
            let batch = tracker.random_batch(&mut rng);
            journal.commit(&batch).expect("generated batches apply");
            tracker.graph.verify_stats().expect("model stats oracle");
            tracker.graph.verify_index().expect("model index oracle");
            let _ = probe(&tracker.graph); // rebuild if the batch dropped it
            tracker.graph.verify_index().expect("rebuilt model index oracle");
            before.verify_index().expect("pre-batch clone index oracle");
            prop_assert_eq!(probe(&before), before_answers);
            let snap = journal.snapshot();
            let _ = snap.stats(); // force a catalog, then cross-check it
            snap.verify_stats().expect("snapshot stats oracle");
            let _ = snap.nodes_with_label("Account");
            snap.verify_index().expect("snapshot index oracle");
            prop_assert_eq!(graph_digest(&snap), graph_digest(&tracker.graph));
        }
    }

    /// Commits build each epoch on the spare graph when nothing pins it.
    /// Over random batches, interleaved failing batches (a valid first
    /// mutation, then one naming a missing element) and snapshots pinned
    /// across one to three commits: after every commit the current
    /// digest equals the clone-and-apply reference, every failing batch
    /// leaves it unchanged, and every pinned graph keeps its digest.
    #[test]
    fn spare_epoch_commits_equal_clone_and_apply(
        seed in 0u64..1_000_000,
        batches in 1usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tracker = Tracker::new();
        let journal = GraphJournal::in_memory(PropertyGraph::new());
        let mut reference = PropertyGraph::new();
        let mut pins: Vec<(std::sync::Arc<PropertyGraph>, u64, usize)> = Vec::new();
        for i in 0..batches {
            if rng.gen_bool(0.4) {
                let snap = journal.snapshot();
                let digest = graph_digest(&snap);
                pins.push((snap, digest, rng.gen_range(1..=3usize)));
            }
            if rng.gen_bool(0.25) {
                let bad = vec![
                    Mutation::AddNode {
                        name: format!("doomed{i}"),
                        labels: vec!["Account".to_owned()],
                        properties: vec![],
                    },
                    Mutation::Delete { element: "ghost".to_owned() },
                ];
                prop_assert!(journal.commit(&bad).is_err());
                prop_assert_eq!(graph_digest(&journal.snapshot()), graph_digest(&reference));
            }
            let batch = tracker.random_batch(&mut rng);
            let mut next = reference.clone();
            for m in &batch {
                m.apply(&mut next).expect("generated batches apply");
            }
            reference = next;
            journal.commit(&batch).expect("generated batches apply");
            prop_assert_eq!(graph_digest(&journal.snapshot()), graph_digest(&reference));
            for (graph, digest, _) in &pins {
                prop_assert_eq!(graph_digest(graph), *digest, "a pinned epoch moved");
            }
            for pin in &mut pins {
                pin.2 -= 1;
            }
            pins.retain(|pin| pin.2 > 0);
        }
    }
}

/// A snapshot pinned before a commit is frozen: concurrent writers
/// advance the journal's epoch underneath it, and the pinned graph's
/// bytes never move. (The wire-level version — a cursor draining across
/// a commit — lives in `server_mutate.rs`.)
#[test]
fn pinned_snapshots_are_immutable_under_concurrent_commits() {
    let journal = std::sync::Arc::new(GraphJournal::in_memory(PropertyGraph::new()));
    journal
        .commit(&[Mutation::AddNode {
            name: "a0".to_owned(),
            labels: vec!["Account".to_owned()],
            properties: vec![("owner".to_owned(), Value::str("Ada"))],
        }])
        .expect("seed");
    let pinned = journal.snapshot();
    let pinned_digest = graph_digest(&pinned);
    let pinned_epoch = journal.epoch();

    let writer = {
        let journal = std::sync::Arc::clone(&journal);
        std::thread::spawn(move || {
            for i in 1..64 {
                journal
                    .commit(&[Mutation::AddNode {
                        name: format!("a{i}"),
                        labels: vec!["Account".to_owned()],
                        properties: vec![],
                    }])
                    .expect("commit");
            }
        })
    };
    // Read the pinned snapshot repeatedly while the writer runs: its
    // content hash must never change, and fresh snapshots must only
    // move forward.
    let mut last_seen = pinned_epoch;
    while journal.epoch() < pinned_epoch + 63 {
        assert_eq!(graph_digest(&pinned), pinned_digest);
        assert_eq!(pinned.node_count(), 1);
        let now = journal.epoch();
        assert!(now >= last_seen, "epochs are monotone");
        last_seen = now;
    }
    writer.join().expect("writer");
    assert_eq!(graph_digest(&pinned), pinned_digest);
    assert_eq!(journal.snapshot().node_count(), 64);
}
