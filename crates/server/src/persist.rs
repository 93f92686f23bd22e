//! Plan-cache persistence: `gpml serve --plan-cache-file PATH` saves the
//! shared cache's compiled plans to disk and warm-starts from them at the
//! next boot, so a restarted server serves its regulars without paying a
//! single compile (`cache.misses` stays 0 for replayed statements).
//!
//! # File format (little-endian throughout)
//!
//! ```text
//! magic   b"GPCF"
//! version u32                       — FORMAT_VERSION; others are ignored
//! fprint  u32 len + bytes           — Debug rendering of the EvalOptions
//! epoch   u64                       — the graph epoch the plans saw
//! count   u32
//! entry*  stmt: u32 len + utf8
//!         stages: u32 count
//!         stage*: u32 len + FlatProgram::to_bytes payload
//! ```
//!
//! The options fingerprint is byte-compared on load: a file written under
//! different evaluation options describes plans this server would never
//! have compiled, so it is silently ignored (plans stay keyed by
//! `(statement, options, epoch)` exactly as live compiles are). The graph
//! epoch is compared the same way: a warm start must never replay plans
//! optimized against a catalog the WAL has since rewritten, so a file
//! whose epoch differs from the recovering server's is ignored wholesale.
//! Any other mismatch — stale version, foreign magic, truncation, a
//! statement the current parser rejects, a program that fails its
//! checksum or no longer matches the freshly compiled plan's shape —
//! skips the file or entry without erroring: a cache file is a hint,
//! never a source of truth.
//!
//! Saves are atomic (write a sibling `.tmp`, then rename) so a crash
//! mid-save leaves the previous file intact. Statements are re-parsed on
//! load and only their flat programs are adopted from the file; the
//! non-serialized plan layers (join order, projections) are rebuilt by
//! the compiler, and [`PreparedGqlQuery::adopt_stage_programs`] rejects
//! any persisted program that disagrees with the rebuilt plan's shape.

use std::fs;
use std::io;
use std::path::Path;

use gpml_core::eval::EvalOptions;
use gpml_core::plan::SharedPlanLru;
use gpml_core::FlatProgram;
use gql::{PreparedGqlQuery, Session};

/// File magic: "Graph Pattern Cache File".
const MAGIC: &[u8; 4] = b"GPCF";

/// Bumped whenever the file layout changes; files written under any
/// other version are ignored on load. Version 2 added the graph epoch.
const FORMAT_VERSION: u32 = 2;

/// The byte-compared options identity. `Debug` is exhaustive over the
/// struct's fields, so any option (mode, isomorphism, threads, limits)
/// changes the fingerprint.
fn fingerprint(opts: &EvalOptions) -> String {
    format!("{opts:?}")
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Saves every cached plan compiled under `opts` to `path`, atomically
/// (temp file + rename). Entries cached under *other* options — possible
/// when sessions sharing the cache diverge — are skipped: the file
/// carries one options fingerprint and must be internally consistent
/// with it.
pub(crate) fn save(
    path: &Path,
    opts: &EvalOptions,
    epoch: u64,
    cache: &SharedPlanLru<PreparedGqlQuery>,
) -> io::Result<()> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_bytes(&mut out, fingerprint(opts).as_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    let entries: Vec<_> = cache
        .entries_full()
        .into_iter()
        .filter(|(_, o, e, _)| o == opts && *e == epoch)
        .collect();
    put_u32(&mut out, entries.len() as u32);
    for (stmt, _, _, plan) in &entries {
        put_bytes(&mut out, stmt.as_bytes());
        let progs = plan.stage_programs();
        put_u32(&mut out, progs.len() as u32);
        for prog in progs {
            put_bytes(&mut out, &prog.to_bytes());
        }
    }
    let tmp = path.with_extension("gpcf-tmp");
    fs::write(&tmp, &out)?;
    fs::rename(&tmp, path)
}

/// Warm-starts `cache` from `path`, returning how many plans were
/// seeded. Every failure mode — missing or unreadable file, foreign
/// magic, stale version, options-fingerprint mismatch, truncation — is a
/// clean "load nothing" (or "stop early"), never an error: the server
/// must boot identically with a bad cache file and with none. Individual
/// entries that no longer parse or whose programs no longer match the
/// recompiled plan are skipped, keeping the rest.
pub(crate) fn load(
    path: &Path,
    opts: &EvalOptions,
    epoch: u64,
    cache: &SharedPlanLru<PreparedGqlQuery>,
) -> usize {
    let Ok(buf) = fs::read(path) else { return 0 };
    let mut r = Reader { buf: &buf, pos: 0 };
    let header_ok = (|| {
        Some(
            r.take(4)? == MAGIC
                && r.u32()? == FORMAT_VERSION
                && r.bytes()? == fingerprint(opts).as_bytes()
                && r.u64()? == epoch,
        )
    })();
    if header_ok != Some(true) {
        return 0;
    }
    // prepare_uncached never touches a plan cache, so compiles here count
    // neither as hits nor misses; the session exists only to parse.
    let session = Session::with_options(opts.clone());
    let mut seeded = 0;
    let Some(count) = r.u32() else { return 0 };
    for _ in 0..count {
        let Some(entry) = read_entry(&mut r) else {
            return seeded; // truncated tail: keep what already loaded
        };
        let (stmt, progs) = entry;
        let Ok(mut prepared) = session.prepare_uncached(&stmt) else {
            continue;
        };
        let Ok(decoded) = progs
            .iter()
            .map(|bytes| FlatProgram::from_bytes(bytes))
            .collect::<Result<Vec<_>, _>>()
        else {
            continue;
        };
        if prepared.adopt_stage_programs(decoded).is_err() {
            continue;
        }
        cache.insert_at(stmt, opts.clone(), epoch, prepared);
        seeded += 1;
    }
    seeded
}

/// One `(statement, per-stage program bytes)` record, or `None` at a
/// truncation.
fn read_entry(r: &mut Reader<'_>) -> Option<(String, Vec<Vec<u8>>)> {
    let stmt = String::from_utf8(r.bytes()?.to_vec()).ok()?;
    let stages = r.u32()?;
    let mut progs = Vec::new();
    for _ in 0..stages {
        progs.push(r.bytes()?.to_vec());
    }
    Some((stmt, progs))
}

/// Bounds-checked little-endian cursor over the raw file bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const STMT: &str = "MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN x.owner AS a ORDER BY a";

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gpml-persist-{name}-{}.gpcf", std::process::id()));
        p
    }

    fn seeded_cache(opts: &EvalOptions) -> SharedPlanLru<PreparedGqlQuery> {
        let cache = SharedPlanLru::new(8);
        let session = Session::with_cache(opts.clone(), cache.clone());
        session.prepare(STMT).expect("statement compiles");
        cache
    }

    #[test]
    fn round_trips_through_a_file() {
        let opts = EvalOptions::default();
        let path = tmp("roundtrip");
        let cache = seeded_cache(&opts);
        save(&path, &opts, 0, &cache).expect("save");

        let restored = SharedPlanLru::new(8);
        assert_eq!(load(&path, &opts, 0, &restored), 1);
        let stats = restored.stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (1, 0, 0));
        assert!(
            restored.get_cloned(STMT, &opts).is_some(),
            "warm-started plan answers the original key"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn options_fingerprint_gates_the_file() {
        let opts = EvalOptions::default();
        let path = tmp("fingerprint");
        save(&path, &opts, 0, &seeded_cache(&opts)).expect("save");

        let other = EvalOptions {
            max_matches: 10,
            ..EvalOptions::default()
        };
        let restored = SharedPlanLru::new(8);
        assert_eq!(load(&path, &other, 0, &restored), 0);
        assert_eq!(restored.stats().len, 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn graph_epoch_gates_the_file() {
        let opts = EvalOptions::default();
        let path = tmp("epoch");
        save(&path, &opts, 3, &seeded_cache(&opts)).expect("save");

        // A server that recovered to a different epoch must cold-start.
        let restored = SharedPlanLru::new(8);
        assert_eq!(load(&path, &opts, 4, &restored), 0);
        assert_eq!(restored.stats().len, 0);

        // Note: seeded_cache primes at epoch 0, so a save at epoch 3
        // writes zero entries; the matching-epoch path is covered by
        // round_trips_through_a_file (epoch 0 on both sides).
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn save_skips_entries_from_other_epochs() {
        let opts = EvalOptions::default();
        let path = tmp("epoch-filter");
        let cache = seeded_cache(&opts); // one entry at epoch 0
        save(&path, &opts, 7, &cache).expect("save");
        let restored = SharedPlanLru::new(8);
        assert_eq!(load(&path, &opts, 7, &restored), 0, "no epoch-7 plans");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn stale_or_corrupt_files_load_nothing() {
        let opts = EvalOptions::default();
        let path = tmp("corrupt");
        let cache = SharedPlanLru::new(8);

        fs::write(&path, b"not a cache file").unwrap();
        assert_eq!(load(&path, &opts, 0, &cache), 0);

        save(&path, &opts, 0, &seeded_cache(&opts)).expect("save");
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes()); // future version
        fs::write(&path, &bytes).unwrap();
        assert_eq!(load(&path, &opts, 0, &cache), 0);

        let mut truncated = fs::read(&path).unwrap();
        truncated[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        truncated.truncate(truncated.len() - 5);
        fs::write(&path, &truncated).unwrap();
        assert_eq!(load(&path, &opts, 0, &cache), 0, "payload cut mid-entry");

        assert_eq!(cache.stats().len, 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_clean_cold_start() {
        let cache = SharedPlanLru::new(8);
        assert_eq!(
            load(
                Path::new("/nonexistent/gpml.gpcf"),
                &EvalOptions::default(),
                0,
                &cache
            ),
            0
        );
    }
}
