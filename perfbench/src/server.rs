//! The server under test: `pops serve` as a child process with default
//! flags (shape and an ephemeral port only).

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pops_network::PopsTopology;
use pops_service::Json;

use crate::wire::Conn;

/// A running server; dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits until it reports its listening
    /// address.
    pub fn spawn(pops: &Path, shape: PopsTopology) -> Result<Self, String> {
        let mut child = Command::new(pops)
            .args(["serve", "--d", &shape.d().to_string()])
            .args(["--g", &shape.g().to_string(), "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", pops.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout not captured")?;
        let mut server = Self {
            child,
            drain: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let (addr, rest) = read_address(stdout)?;
        server.addr = addr;
        // Keep reading so the server never blocks on a full pipe.
        let mut rest = rest;
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut rest, &mut std::io::sink());
        }));
        Ok(server)
    }

    /// The `stats` op document.
    pub fn stats(&self) -> Result<Json, String> {
        Conn::connect(self.addr, false)?.call(r#"{"op":"stats"}"#)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Orderly shutdown; falls back to a kill after ten seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked =
            Conn::connect(self.addr, false).and_then(|mut c| c.call(r#"{"op":"shutdown"}"#));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.reap();
                acked?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit after shutdown".into())
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

fn read_address(stdout: ChildStdout) -> Result<(SocketAddr, BufReader<ChildStdout>), String> {
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        if read == 0 {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            return Err(format!("server exited before listening{rest}"));
        }
        if let Some(tail) = line.split("listening on ").nth(1) {
            let addr = tail.split_whitespace().next().unwrap_or_default();
            let addr = addr
                .parse()
                .map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
            return Ok((addr, reader));
        }
    }
}
