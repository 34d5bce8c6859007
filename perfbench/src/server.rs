//! The system under test: a release `spg serve` child process.

use spg_graph::wire::shutdown_line;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a drained server may take to exit before it is killed.
const EXIT_WAIT: Duration = Duration::from_secs(30);

/// A running `spg serve`. Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

/// What the server printed when it drained.
#[derive(Debug, Clone, Default)]
pub struct Drained {
    pub lines: Vec<String>,
}

impl Drained {
    /// The counter printed as `<count> <name>` in the drain lines, e.g.
    /// `batches` from `12 batches` or `hits` from `cache 3 hits`.
    pub fn count(&self, name: &str) -> Option<u64> {
        let first = self.lines.iter().find(|l| l.starts_with("drained:"))?;
        let words: Vec<&str> = first
            .split(|c: char| c == ',' || c == '/' || c.is_whitespace())
            .filter(|w| !w.is_empty())
            .collect();
        words
            .windows(2)
            .find(|w| w[1] == name)
            .and_then(|w| w[0].parse().ok())
    }
}

impl Server {
    /// Start `spg serve` on an OS-assigned port and wait for its
    /// `listening on ADDR` line. `metrics` turns on its telemetry stream.
    pub fn start(
        spg: &Path,
        model: &Path,
        setting: &str,
        metrics: Option<&Path>,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(spg);
        cmd.arg("serve").arg("--model").arg(model).args([
            "--addr",
            "127.0.0.1:0",
            "--setting",
            setting,
        ]);
        if let Some(path) = metrics {
            cmd.arg("--metrics").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spg.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("read server stdout: {e}"))?;
            if n == 0 {
                return Err("server exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                return Ok(server);
            }
        }
    }

    /// Send `shutdown`, let the server drain, and require a clean exit.
    pub fn shutdown(mut self) -> Result<Drained, String> {
        let mut conn = crate::client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        conn.write_all(format!("{}\n", shutdown_line()).as_bytes())
            .map_err(|e| format!("send shutdown: {e}"))?;
        drop(conn);
        let mut drained = Drained::default();
        let mut line = String::new();
        loop {
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => drained.lines.push(line.trim_end().to_string()),
                Err(e) => return Err(format!("read server stdout: {e}")),
            }
        }
        let mut child = self.child.take().expect("running until shut down");
        let deadline = Instant::now() + EXIT_WAIT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(drained),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after draining".to_string());
                }
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drained_counts_parse_from_the_drain_line() {
        let d = Drained {
            lines: vec![
                "drained: 120 responses, 3 errors, 40 batches, cache 7 hits / 113 misses"
                    .to_string(),
            ],
        };
        assert_eq!(d.count("responses"), Some(120));
        assert_eq!(d.count("errors"), Some(3));
        assert_eq!(d.count("batches"), Some(40));
        assert_eq!(d.count("hits"), Some(7));
        assert_eq!(d.count("misses"), Some(113));
        assert_eq!(d.count("nothing"), None);
    }
}
