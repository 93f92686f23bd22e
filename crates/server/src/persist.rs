//! Plan-cache persistence: `gpml serve --plan-cache-file PATH` saves the
//! shared cache's working set to disk and warm-starts from it at the
//! next boot, so a restarted server serves its regulars without paying a
//! single client-visible compile (`cache.misses` stays 0 for replayed
//! statements).
//!
//! # File format
//!
//! Plain UTF-8 text, one GPML statement per line, least recently used
//! first. A statement is the whole portable description of its plan:
//! the compiler derives the same plan from statement, options and graph
//! statistics every time, so the file carries nothing else — no version,
//! options fingerprint or graph epoch. Loading re-prepares every line
//! with the booting server's options, so a file saved at epoch *n*
//! warm-starts a server recovered at any later epoch.
//!
//! A cache file is a hint, never a source of truth. A line that no
//! longer compiles is skipped. A file that is not UTF-8 text, or that
//! starts with the `GPCF` magic of the retired binary format, is ignored
//! wholesale (the caller logs one line) and overwritten by the next
//! save. Statements containing a line break are left out at save time;
//! they simply recompile on first use.
//!
//! Saves are atomic (write a sibling `.tmp`, then rename) so a crash
//! mid-save leaves the previous file intact.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::Path;

use gpml_core::plan::{SharedPlanLru, Statement};
use gql::Session;

/// Magic of the retired binary plan-cache format; such files are ignored.
const OLD_BINARY_MAGIC: &[u8] = b"GPCF";

/// Saves the distinct statement texts of every cached plan that a wire
/// request can serve to `path`, atomically (temp file + rename), least
/// recently used first. A bare `MATCH` stays cached, since a one-shot
/// QUERY of it is looked up, but no QUERY or PREPARE can run it, so it is
/// left out.
pub(crate) fn save(path: &Path, cache: &SharedPlanLru<Statement>) -> io::Result<()> {
    let mut seen = HashSet::new();
    let mut out = String::new();
    // The texts are copied out under the cache lock; the file write
    // happens after it is released.
    for (stmt, _, plan) in cache.lock().by_recency().into_iter().rev() {
        if !plan.has_return() || stmt.contains(['\n', '\r']) || !seen.insert(stmt) {
            continue;
        }
        out.push_str(stmt);
        out.push('\n');
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fs::write(&tmp, out)?;
    fs::rename(&tmp, path)
}

/// Warm-starts `session`'s plan cache from `path` at the session's
/// options, returning how many plans were seeded. A missing
/// file is a clean cold start (`Ok(0)`); a file that is unreadable, not
/// UTF-8 text, or in the retired binary format is `Err` with the reason
/// it was ignored.
pub(crate) fn load(path: &Path, session: &Session) -> Result<usize, String> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(format!("unreadable ({e})")),
    };
    if bytes.starts_with(OLD_BINARY_MAGIC) {
        return Err("old binary (GPCF)".to_owned());
    }
    let text = String::from_utf8(bytes).map_err(|_| "non-UTF-8".to_owned())?;
    let mut seeded = 0;
    for stmt in text.lines() {
        // prepare_uncached bypasses the cache, so these compiles count
        // neither as hits nor as misses.
        if let Ok(prepared) = session.prepare_uncached(stmt) {
            session
                .plan_cache()
                .insert(stmt.to_owned(), session.options().clone(), prepared);
            seeded += 1;
        }
    }
    Ok(seeded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpml_core::eval::EvalOptions;
    use std::path::PathBuf;

    const STMT: &str = "MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN x.owner AS a ORDER BY a";

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gpml-persist-{name}-{}.txt", std::process::id()));
        p
    }

    /// A session over a fresh cache, as a booting server has.
    fn session() -> Session {
        Session::with_cache(EvalOptions::default(), SharedPlanLru::new(8))
    }

    fn seeded_cache(stmts: &[&str]) -> SharedPlanLru<Statement> {
        let session = session();
        for stmt in stmts {
            session.prepare(stmt).expect("statement compiles");
        }
        session.plan_cache().clone()
    }

    #[test]
    fn round_trips_through_a_file() {
        let path = tmp("roundtrip");
        save(&path, &seeded_cache(&[STMT])).expect("save");
        assert_eq!(fs::read_to_string(&path).unwrap(), format!("{STMT}\n"));

        let session = session();
        assert_eq!(load(&path, &session), Ok(1));
        let stats = session.plan_cache_stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (1, 0, 0));
        assert!(
            session
                .plan_cache()
                .get_cloned(STMT, &EvalOptions::default())
                .is_some(),
            "warm-started plan answers the original key"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn old_or_hostile_files_are_ignored() {
        let path = tmp("hostile");
        let session = session();

        // The retired binary format, header only.
        fs::write(&path, b"GPCF\x02\x00\x00\x00").unwrap();
        assert!(load(&path, &session).unwrap_err().contains("GPCF"));

        fs::write(&path, b"MATCH (x) RETURN x\n\xff\xfe\n").unwrap();
        assert!(load(&path, &session).unwrap_err().contains("UTF-8"));

        // Lines that do not compile are skipped, the rest still load.
        fs::write(&path, format!("not a statement\n\n{STMT}\n")).unwrap();
        assert_eq!(load(&path, &session), Ok(1));
        let _ = fs::remove_file(&path);

        // A statement with a line break never reaches the file.
        let multi = "MATCH (x:Account)\nRETURN x.owner AS a";
        save(&path, &seeded_cache(&[multi, STMT])).expect("save");
        assert_eq!(fs::read_to_string(&path).unwrap(), format!("{STMT}\n"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_clean_cold_start() {
        let session = session();
        assert_eq!(
            load(Path::new("/nonexistent/gpml-plans.txt"), &session),
            Ok(0)
        );
        assert_eq!(session.plan_cache_stats().len, 0);
    }
}
