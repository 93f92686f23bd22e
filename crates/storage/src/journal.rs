//! [`GraphJournal`]: mutation batches, epochs, and recovery.
//!
//! # Epoch snapshot isolation
//!
//! The journal owns the current graph behind an `Arc`. Readers call
//! [`GraphJournal::snapshot`], which clones the `Arc` under a lock held
//! for nanoseconds — from then on they hold epoch *N* immutably and can
//! match, stream cursors, and project against it for as long as they
//! like. A writer takes the (separate) writer lock, builds the next
//! epoch's graph off to the side, applies its whole batch to it, makes
//! the batch durable, and only then swaps the `Arc` and bumps the epoch
//! counter. Readers never wait on the build, the fsync, or each other;
//! at worst they observe epoch *N* while *N+1* is already current —
//! exactly the isolation the acceptance tests pin down.
//!
//! # Spare-epoch reuse
//!
//! The graph a commit replaces is not dropped: the writer keeps it as
//! the *spare*, together with the batch it lacks. The next commit first
//! tries `Arc::try_unwrap` on the spare, which succeeds only when no
//! reader, cursor or snapshot still pins it; it then applies the lagging
//! batch and the new one to the spare, in place. Only when the spare is
//! still pinned (or on the first commit) does the writer clone the
//! current graph instead. So in the steady state a commit costs work
//! proportional to its batch, and no graph is cloned or dropped on the
//! commit path. A pinned spare is never touched — `try_unwrap` cannot
//! succeed while anyone else holds it — and a batch that fails on the
//! reused graph discards it, so the next commit clones.
//!
//! # Commit protocol (durable mode)
//!
//! 1. take the writer lock (writers are serialized);
//! 2. reuse the spare or clone the current graph, apply every mutation —
//!    any failure aborts the whole batch with `current` and the log
//!    untouched;
//! 3. append one WAL record for the batch (fsync if the knob is on);
//! 4. swap the `Arc`, bump the epoch, keep the replaced graph as the
//!    spare, release the lock, acknowledge.
//!
//! `kill -9` between (3) and (4) is safe: replay reapplies the batch.
//! `kill -9` before (3) is safe: the batch was never acknowledged.
//!
//! # Snapshots
//!
//! When the WAL grows past `snapshot_every_bytes`, the committing writer
//! saves a snapshot of the *new* epoch (atomic temp + rename) and then
//! truncates the WAL. A crash between the two is safe: recovery loads
//! the snapshot and skips WAL records whose epoch it already covers.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use property_graph::{GraphError, PropertyGraph};

use crate::mutation::Mutation;
use crate::snapshot::{load_snapshot, save_snapshot};
use crate::wal::Wal;

/// WAL file name inside a data directory.
pub const WAL_FILE: &str = "wal.gwal";
/// Snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.gsnp";
/// Default WAL size that triggers compaction into a snapshot.
pub const DEFAULT_SNAPSHOT_EVERY_BYTES: u64 = 4 << 20;

/// Why a commit was refused. The graph and the log are unchanged.
#[derive(Debug)]
pub enum CommitError {
    /// A mutation in the batch was invalid (the whole batch is dropped).
    Graph(GraphError),
    /// The WAL or snapshot write failed; the in-memory epoch was not
    /// advanced, so acknowledged state still matches durable state.
    Io(io::Error),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Graph(e) => write!(f, "{e}"),
            CommitError::Io(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CommitError {}

impl From<GraphError> for CommitError {
    fn from(e: GraphError) -> CommitError {
        CommitError::Graph(e)
    }
}

impl From<io::Error> for CommitError {
    fn from(e: io::Error) -> CommitError {
        CommitError::Io(e)
    }
}

/// Point-in-time storage counters, surfaced by the server's `STATS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// The current epoch (0 = the boot graph, nothing committed).
    pub epoch: u64,
    /// WAL file size in bytes (0 when running in memory).
    pub wal_bytes: u64,
    /// Intact commit records currently in the WAL.
    pub wal_records: u64,
    /// Mutations applied since this process opened the journal.
    pub writes_applied: u64,
    /// Snapshots written since this process opened the journal.
    pub snapshots_taken: u64,
}

/// Where one committed batch's time went, in microseconds. Filled by
/// [`GraphJournal::commit_timed`] so the server can hang WAL spans off a
/// commit's trace without the journal knowing anything about tracing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitTimings {
    /// Building the next epoch's graph — bringing the spare up to date,
    /// or cloning the current graph — and applying the batch to it.
    pub apply_us: u64,
    /// Writing the WAL record, *excluding* the fsync (0 when in-memory).
    pub append_us: u64,
    /// The fsync itself (0 when in-memory or the fsync knob is off).
    pub fsync_us: u64,
    /// Swapping the `Arc` and bumping the epoch.
    pub swap_us: u64,
    /// Snapshot compaction, when this commit crossed the WAL threshold.
    pub compact_us: u64,
}

/// Durable state, present only when the journal has a data directory.
struct Durable {
    wal: Wal,
    snapshot_path: PathBuf,
    snapshot_every: u64,
}

/// The mutable half, guarded by the writer lock.
struct Writer {
    durable: Option<Durable>,
    /// The previous epoch's graph and the batch it lacks to equal the
    /// current one (see "Spare-epoch reuse" in the module docs).
    spare: Option<(Arc<PropertyGraph>, Vec<Mutation>)>,
}

/// A mutable, versioned property graph with WAL-backed durability and
/// epoch snapshot isolation. See the module docs for the protocol.
pub struct GraphJournal {
    current: Mutex<Arc<PropertyGraph>>,
    epoch: AtomicU64,
    writer: Mutex<Writer>,
    writes_applied: AtomicU64,
    snapshots_taken: AtomicU64,
    wal_bytes: AtomicU64,
    wal_records: AtomicU64,
}

impl GraphJournal {
    /// A journal with no backing files: mutations and epochs work
    /// identically, nothing survives the process. This is what a server
    /// without `--data-dir` runs on.
    pub fn in_memory(graph: PropertyGraph) -> GraphJournal {
        GraphJournal {
            current: Mutex::new(Arc::new(graph)),
            epoch: AtomicU64::new(0),
            writer: Mutex::new(Writer {
                durable: None,
                spare: None,
            }),
            writes_applied: AtomicU64::new(0),
            snapshots_taken: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
        }
    }

    /// Opens (or creates) a durable journal in `dir` and recovers:
    /// load the snapshot if one exists (else start from `boot` at epoch
    /// 0), then replay every intact WAL record with a later epoch, each
    /// batch all-or-nothing.
    ///
    /// Records are applied in place to one graph. The graph is cloned at
    /// most once, before the first record, so that a record which no
    /// longer applies can be rolled back: recovery then rebuilds the
    /// last good epoch from that copy and the records before it.
    pub fn open(
        dir: &Path,
        boot: PropertyGraph,
        fsync_on_commit: bool,
        snapshot_every_bytes: u64,
    ) -> io::Result<GraphJournal> {
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let (mut epoch, mut graph) = match load_snapshot(&snapshot_path)? {
            Some((e, g)) => (e, g),
            None => (0, boot),
        };
        let (wal, commits) = Wal::open(&dir.join(WAL_FILE), fsync_on_commit)?;
        let pending: Vec<_> = commits.into_iter().filter(|r| r.epoch > epoch).collect();
        // Records at or below `epoch` are already folded into the snapshot.
        let base = (!pending.is_empty()).then(|| graph.clone());
        for (i, rec) in pending.iter().enumerate() {
            if let Err(e) = rec.mutations.iter().try_for_each(|m| m.apply(&mut graph)) {
                // A record that applied when written but no longer does
                // means the files disagree with each other; refuse to
                // guess past it, and drop its partial effects by
                // replaying the good prefix onto the untouched copy.
                eprintln!("gpml-storage: replay stopped at epoch {}: {e}", rec.epoch);
                graph = base.expect("cloned before the first record");
                for good in &pending[..i] {
                    for m in &good.mutations {
                        m.apply(&mut graph).map_err(|e| {
                            io::Error::other(format!("replay of epoch {}: {e}", good.epoch))
                        })?;
                    }
                }
                break;
            }
            epoch = rec.epoch;
        }
        let journal = GraphJournal {
            wal_bytes: AtomicU64::new(wal.bytes()),
            wal_records: AtomicU64::new(wal.records()),
            current: Mutex::new(Arc::new(graph)),
            epoch: AtomicU64::new(epoch),
            writer: Mutex::new(Writer {
                durable: Some(Durable {
                    wal,
                    snapshot_path,
                    snapshot_every: snapshot_every_bytes.max(1),
                }),
                spare: None,
            }),
            writes_applied: AtomicU64::new(0),
            snapshots_taken: AtomicU64::new(0),
        };
        Ok(journal)
    }

    /// The current epoch's graph. The returned `Arc` stays valid and
    /// immutable forever — later commits swap in a new graph rather
    /// than touching this one.
    pub fn snapshot(&self) -> Arc<PropertyGraph> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// True when backed by a data directory.
    pub fn is_durable(&self) -> bool {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .durable
            .is_some()
    }

    /// Commits one batch atomically. Returns `(new_epoch, applied)`;
    /// an empty batch commits vacuously at the current epoch with no
    /// WAL record. On `Err` nothing changed, in memory or on disk.
    pub fn commit(&self, mutations: &[Mutation]) -> Result<(u64, usize), CommitError> {
        self.commit_timed(mutations).map(|(e, n, _)| (e, n))
    }

    /// [`GraphJournal::commit`] plus a per-phase timing breakdown, for
    /// the server's commit trace spans and latency histograms.
    pub fn commit_timed(
        &self,
        mutations: &[Mutation],
    ) -> Result<(u64, usize, CommitTimings), CommitError> {
        let mut timings = CommitTimings::default();
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if mutations.is_empty() {
            return Ok((self.epoch(), 0, timings));
        }
        let started = std::time::Instant::now();
        let base = self.snapshot();
        // Reuse the spare when nothing pins it (see the module docs);
        // if its lagging batch somehow fails, fall back to a clone.
        let reused = writer.spare.take().and_then(|(spare, lag)| {
            let mut graph = Arc::try_unwrap(spare).ok()?;
            lag.iter()
                .try_for_each(|m| m.apply(&mut graph))
                .ok()
                .map(|()| graph)
        });
        let mut next = reused.unwrap_or_else(|| (*base).clone());
        for m in mutations {
            // On failure `next` is dropped and no spare is kept, so the
            // next commit clones; `current` was never touched.
            m.apply(&mut next)?;
        }
        timings.apply_us = started.elapsed().as_micros() as u64;
        let next_epoch = self.epoch() + 1;
        if let Some(durable) = writer.durable.as_mut() {
            let started = std::time::Instant::now();
            timings.fsync_us = durable.wal.append(next_epoch, mutations)?;
            timings.append_us =
                (started.elapsed().as_micros() as u64).saturating_sub(timings.fsync_us);
        }
        let started = std::time::Instant::now();
        {
            let mut cur = self.current.lock().unwrap_or_else(|e| e.into_inner());
            *cur = Arc::new(next);
        }
        writer.spare = Some((base, mutations.to_vec()));
        self.epoch.store(next_epoch, Ordering::SeqCst);
        timings.swap_us = started.elapsed().as_micros() as u64;
        self.writes_applied
            .fetch_add(mutations.len() as u64, Ordering::Relaxed);
        if let Some(durable) = writer.durable.as_mut() {
            if durable.wal.bytes() >= durable.snapshot_every {
                let started = std::time::Instant::now();
                self.compact(durable)?;
                timings.compact_us = started.elapsed().as_micros() as u64;
            }
            self.wal_bytes.store(durable.wal.bytes(), Ordering::Relaxed);
            self.wal_records
                .store(durable.wal.records(), Ordering::Relaxed);
        }
        Ok((next_epoch, mutations.len(), timings))
    }

    /// Writes a snapshot of the current epoch and truncates the WAL.
    /// Returns `false` (and does nothing) for in-memory journals.
    pub fn force_snapshot(&self) -> io::Result<bool> {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let Some(durable) = writer.durable.as_mut() else {
            return Ok(false);
        };
        self.compact(durable)?;
        self.wal_bytes.store(durable.wal.bytes(), Ordering::Relaxed);
        self.wal_records
            .store(durable.wal.records(), Ordering::Relaxed);
        Ok(true)
    }

    /// Snapshot-then-truncate, under the writer lock.
    fn compact(&self, durable: &mut Durable) -> io::Result<()> {
        let graph = self.snapshot();
        save_snapshot(&durable.snapshot_path, self.epoch(), &graph)?;
        durable.wal.reset()?;
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Point-in-time counters for `STATS`.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            epoch: self.epoch(),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            writes_applied: self.writes_applied.load(Ordering::Relaxed),
            snapshots_taken: self.snapshots_taken.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::graph_digest;
    use property_graph::Value;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gjournal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn add(i: u64) -> Vec<Mutation> {
        vec![Mutation::AddNode {
            name: format!("n{i}"),
            labels: vec!["L".into()],
            properties: vec![("i".into(), Value::Int(i as i64))],
        }]
    }

    #[test]
    fn in_memory_commit_bumps_epochs_and_isolates_readers() {
        let j = GraphJournal::in_memory(PropertyGraph::new());
        let before = j.snapshot();
        let (e1, n1) = j.commit(&add(1)).unwrap();
        assert_eq!((e1, n1), (1, 1));
        // The pinned snapshot is untouched; a fresh one sees the write.
        assert_eq!(before.node_count(), 0);
        assert_eq!(j.snapshot().node_count(), 1);
        assert!(!j.is_durable());
        assert_eq!(j.stats().wal_bytes, 0);
    }

    #[test]
    fn failed_batches_are_all_or_nothing() {
        let j = GraphJournal::in_memory(PropertyGraph::new());
        j.commit(&add(1)).unwrap();
        let bad = vec![
            Mutation::AddNode {
                name: "fresh".into(),
                labels: vec![],
                properties: vec![],
            },
            Mutation::Delete {
                element: "ghost".into(),
            },
        ];
        let err = j.commit(&bad).unwrap_err();
        assert!(matches!(err, CommitError::Graph(_)));
        assert_eq!(j.epoch(), 1);
        assert!(j.snapshot().node_by_name("fresh").is_none());
    }

    #[test]
    fn reopen_recovers_exactly_the_committed_epochs() {
        let dir = tmpdir("recover");
        let j = GraphJournal::open(&dir, PropertyGraph::new(), true, u64::MAX).unwrap();
        for i in 1..=5 {
            j.commit(&add(i)).unwrap();
        }
        let digest = graph_digest(&j.snapshot());
        let epoch = j.epoch();
        drop(j);
        let j2 = GraphJournal::open(&dir, PropertyGraph::new(), true, u64::MAX).unwrap();
        assert_eq!(j2.epoch(), epoch);
        assert_eq!(graph_digest(&j2.snapshot()), digest);
        assert!(j2.is_durable());
    }

    #[test]
    fn replay_stops_at_a_record_that_no_longer_applies() {
        let dir = tmpdir("bad-record");
        let j = GraphJournal::open(&dir, PropertyGraph::new(), false, u64::MAX).unwrap();
        for i in 1..=3 {
            j.commit(&add(i)).unwrap();
        }
        let digest = graph_digest(&j.snapshot());
        drop(j);
        // Intact, checksummed records whose first batch fails half-way:
        // its first mutation applies, its second names a missing element.
        // The valid record after it must not be replayed either.
        let (mut wal, _) = Wal::open(&dir.join(WAL_FILE), false).unwrap();
        let mut bad = add(4);
        bad.push(Mutation::Delete {
            element: "ghost".into(),
        });
        wal.append(4, &bad).unwrap();
        wal.append(5, &add(5)).unwrap();
        drop(wal);
        let j2 = GraphJournal::open(&dir, PropertyGraph::new(), false, u64::MAX).unwrap();
        assert_eq!(j2.epoch(), 3);
        assert_eq!(graph_digest(&j2.snapshot()), digest);
        assert!(j2.snapshot().node_by_name("n4").is_none());
    }

    #[test]
    fn commits_build_on_the_spare_and_leave_pinned_epochs_alone() {
        let j = GraphJournal::in_memory(PropertyGraph::new());
        let mut reference = PropertyGraph::new();
        for i in 1..=6 {
            // Pin every other epoch across the next two commits.
            let pinned = (i % 2 == 0).then(|| (j.snapshot(), graph_digest(&j.snapshot())));
            for _ in 0..2 {
                let batch = add(reference.node_count() as u64 + 1);
                for m in &batch {
                    m.apply(&mut reference).unwrap();
                }
                j.commit(&batch).unwrap();
                assert_eq!(graph_digest(&j.snapshot()), graph_digest(&reference));
                if let Some((graph, digest)) = &pinned {
                    assert_eq!(graph_digest(graph), *digest);
                }
            }
            // A failing batch leaves the epoch and the graph unchanged.
            let bad = vec![
                add(1000 + i).remove(0),
                Mutation::Delete {
                    element: "ghost".into(),
                },
            ];
            assert!(j.commit(&bad).is_err());
            assert_eq!(graph_digest(&j.snapshot()), graph_digest(&reference));
        }
        assert_eq!(j.epoch(), 12);
    }

    #[test]
    fn compaction_snapshots_then_truncates_and_recovery_agrees() {
        let dir = tmpdir("compact");
        // Tiny threshold: every commit compacts.
        let j = GraphJournal::open(&dir, PropertyGraph::new(), false, 1).unwrap();
        for i in 1..=3 {
            j.commit(&add(i)).unwrap();
        }
        let s = j.stats();
        assert_eq!(s.snapshots_taken, 3);
        assert_eq!(s.wal_records, 0);
        let digest = graph_digest(&j.snapshot());
        drop(j);
        let j2 = GraphJournal::open(&dir, PropertyGraph::new(), false, 1).unwrap();
        assert_eq!(j2.epoch(), 3);
        assert_eq!(graph_digest(&j2.snapshot()), digest);
    }

    #[test]
    fn empty_batches_write_nothing() {
        let dir = tmpdir("empty");
        let j = GraphJournal::open(&dir, PropertyGraph::new(), false, u64::MAX).unwrap();
        let (e, n) = j.commit(&[]).unwrap();
        assert_eq!((e, n), (0, 0));
        assert_eq!(j.stats().wal_records, 0);
    }

    #[test]
    fn force_snapshot_makes_wal_redundant() {
        let dir = tmpdir("force");
        let j = GraphJournal::open(&dir, PropertyGraph::new(), false, u64::MAX).unwrap();
        j.commit(&add(1)).unwrap();
        assert!(j.force_snapshot().unwrap());
        assert_eq!(j.stats().wal_records, 0);
        let digest = graph_digest(&j.snapshot());
        drop(j);
        // Recovery now comes purely from the snapshot.
        let j2 = GraphJournal::open(&dir, PropertyGraph::new(), false, u64::MAX).unwrap();
        assert_eq!(j2.epoch(), 1);
        assert_eq!(graph_digest(&j2.snapshot()), digest);
        let in_mem = GraphJournal::in_memory(PropertyGraph::new());
        assert!(!in_mem.force_snapshot().unwrap());
    }
}
