//! The system under test: a real `gpml serve` child process.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Flags every benchmark server runs with (`nproc` is 2 on the reference
/// box: two workers, sequential matcher, the default-sized plan cache).
pub const FIXED_FLAGS: [&str; 8] = [
    "--port",
    "0",
    "--workers",
    "2",
    "--threads",
    "1",
    "--cache",
    "128",
];

/// Builds `gpml` with the repository's own manifest and profile, into the
/// target directory cargo is already using, and returns the binary's path.
pub fn build_server(root: &Path) -> io::Result<PathBuf> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        // Cargo resolves a relative target directory against the directory
        // it was started in, which for the harness is its own.
        Some(dir) => std::env::current_dir()?.join(dir),
        None => root.join("target"),
    };
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "gpml",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "cargo build --bin gpml failed: {status}"
        )));
    }
    Ok(target.join("release").join("gpml"))
}

/// A running server. Dropping it sends `SIGKILL` and reaps the child.
pub struct Server {
    child: Child,
    // Held so the child never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub boot_line: String,
}

impl Server {
    /// Spawns `gpml serve` and blocks until it prints its listening line.
    pub fn spawn(bin: &Path, graph: &str, extra: &[String]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--graph", graph])
            .args(FIXED_FLAGS)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut boot_line = String::new();
        let read = stdout.read_line(&mut boot_line);
        let addr = boot_line
            .strip_prefix("gpmld listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
                boot_line: boot_line.trim_end().to_owned(),
            }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server did not come up (read {read:?}, line {boot_line:?})"
                )))
            }
        }
    }

    /// `(nodes, edges)` of the boot graph, from the listening line.
    pub fn boot_counts(&self) -> Option<(usize, usize)> {
        counts_after(&self.boot_line, ": ")
    }

    /// `(epoch, nodes, edges)` after WAL recovery, for a durable boot.
    pub fn recovered(&self) -> Option<(u64, usize, usize)> {
        let rest = self.boot_line.split("recovered to epoch ").nth(1)?;
        let epoch = rest.split_whitespace().next()?.parse().ok()?;
        let (nodes, edges) = counts_after(rest, "with ")?;
        Some((epoch, nodes, edges))
    }

    /// Peak resident set of the child in KiB (`VmHWM`).
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Parses `"<N> nodes, <M> edges"` following the last `marker` before it.
fn counts_after(line: &str, marker: &str) -> Option<(usize, usize)> {
    let head = &line[..line.find(" nodes")?];
    let nodes = head.rsplit(marker).next()?.trim().parse().ok()?;
    let tail = &line[line.find(" nodes, ")? + " nodes, ".len()..];
    let edges = tail.split_whitespace().next()?.parse().ok()?;
    Some((nodes, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_line_counts() {
        let plain =
            "gpmld listening on 127.0.0.1:4 (graph network:200,600,1: 303 nodes, 1000 edges)";
        assert_eq!(counts_after(plain, ": "), Some((303, 1000)));
        let csv = "gpmld listening on 127.0.0.1:4 (graph csv:/a/b: 3003 nodes, 10000 edges)";
        assert_eq!(counts_after(csv, ": "), Some((3003, 10000)));
        let durable = "recovered to epoch 128 with 3003 nodes, 10064 edges)";
        assert_eq!(counts_after(durable, "with "), Some((3003, 10064)));
    }
}
