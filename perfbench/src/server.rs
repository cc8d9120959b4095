//! The server under test: the shipped `osdiv serve` release binary as a
//! child process, plus its `/metrics` exposition read back as numbers.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use crate::client::{get_request, Conn, Ledger};

/// Added to each scrape's [`Metrics`]: the client's count of the scrapes
/// the exposition counts in `osdiv_requests_served` (every one up to and
/// including itself) and of the scrape reply bytes it counts in
/// `osdiv_bytes_out` (those of every earlier scrape).
pub const SCRAPES: &str = "perfbench_scrapes";
pub const SCRAPE_BYTES: &str = "perfbench_scrape_bytes";

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Drains the child's stdout so it can never block on a full pipe.
    stdout: Option<thread::JoinHandle<()>>,
    /// Every request this benchmark sent to this server instance.
    pub ledger: Ledger,
}

impl Server {
    /// Spawns `osdiv serve` with default flags apart from the worker count,
    /// the data directory and the two routes the benchmark needs, and
    /// returns once it prints its listening address.
    pub fn spawn(osdiv: &Path, threads: usize, data_dir: &Path) -> io::Result<Server> {
        let mut child = Command::new(osdiv)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(["--threads", &threads.to_string()])
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--enable-dataset-delete", "--enable-shutdown"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = loop {
            let mut line = String::new();
            if lines.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("osdiv serve exited before listening"));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("");
                match addr.parse() {
                    Ok(addr) => break addr,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(io::Error::other(format!("unparsable address in {line:?}")));
                    }
                }
            }
        };
        let stdout = thread::spawn(move || {
            let _ = io::copy(&mut lines, &mut io::sink());
        });
        Ok(Server {
            child,
            addr,
            stdout: Some(stdout),
            ledger: Ledger::default(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on a fresh connection, closed afterwards.
    pub fn one_shot(&self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut conn = Conn::connect(self.addr)?;
        let reply = conn.send(&self.ledger, request)?;
        Ok((reply.status, conn.body().to_vec()))
    }

    pub fn get(&self, target: &str) -> io::Result<(u16, Vec<u8>)> {
        self.one_shot(&get_request(target))
    }

    pub fn scrape(&self) -> io::Result<Metrics> {
        let scrapes = self.ledger.scrapes() + 1;
        let scrape_bytes = self.ledger.scrape_bytes();
        let mut conn = Conn::connect(self.addr)?;
        let reply = conn.scrape(&self.ledger)?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                reply.status
            )));
        }
        let mut metrics = Metrics::parse(&String::from_utf8_lossy(conn.body()));
        metrics.set(SCRAPES, scrapes as f64);
        metrics.set(SCRAPE_BYTES, scrape_bytes as f64);
        Ok(metrics)
    }

    /// The peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line"))
    }

    /// Shuts down over HTTP and waits for the process; kills it if it
    /// does not exit within ten seconds.
    pub fn shutdown(mut self) -> io::Result<()> {
        let requested = self
            .one_shot(b"POST /v1/shutdown HTTP/1.1\r\nHost: osdiv\r\nContent-Length: 0\r\n\r\n");
        let deadline = Instant::now() + Duration::from_secs(10);
        let exited = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if Instant::now() >= deadline {
                break None;
            }
            thread::sleep(Duration::from_millis(5));
        };
        if exited.is_none() {
            self.child.kill()?;
            self.child.wait()?;
        }
        if let Some(drain) = self.stdout.take() {
            let _ = drain.join();
        }
        requested?;
        match exited {
            Some(status) if status.success() => Ok(()),
            Some(status) => Err(io::Error::other(format!(
                "osdiv serve exited with {status}"
            ))),
            None => Err(io::Error::other("osdiv serve ignored the shutdown request")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path: never leave the child running.
        if self.child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.stdout.take() {
            let _ = drain.join();
        }
    }
}

/// One `/metrics` exposition: every sample by its full name with labels,
/// e.g. `osdiv_stage_duration_seconds_sum{stage="parse"}`.
#[derive(Debug, Clone, Default)]
pub struct Metrics(HashMap<String, f64>);

impl Metrics {
    pub fn parse(text: &str) -> Metrics {
        Metrics(
            text.lines()
                .filter(|line| !line.starts_with('#'))
                .filter_map(|line| {
                    let (name, value) = line.rsplit_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Every sample of `self` minus the same sample of `before`.
    pub fn diff(&self, before: &Metrics) -> Metrics {
        Metrics(
            self.0
                .iter()
                .map(|(name, value)| (name.clone(), value - before.get(name)))
                .collect(),
        )
    }

    /// Adds another set of deltas sample by sample.
    pub fn add(&mut self, other: &Metrics) {
        for (name, value) in &other.0 {
            *self.0.entry(name.clone()).or_insert(0.0) += value;
        }
    }

    /// Count and sum (µs) of one histogram series.
    pub fn hist(&self, family: &str, label: &str) -> (f64, f64) {
        (
            self.get(&format!("{family}_count{label}")),
            self.get(&format!("{family}_sum{label}")) * 1e6,
        )
    }

    /// Mean (µs) of one histogram series; 0 without observations.
    pub fn hist_mean(&self, family: &str, label: &str) -> f64 {
        let (count, sum) = self.hist(family, label);
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }
}
