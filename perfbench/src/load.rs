//! The load generators: a closed loop for capacity, an open loop with
//! Poisson arrivals for latency at fixed offered rates, and the feed
//! uploader. All of them check every response they can check.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use crate::client::{Conn, Reply};
use crate::server::Server;

/// One read request of a workload, with the index of its expected body in
/// [`ReadMix::expected`] when the benchmark holds a reference for it.
pub struct Target {
    pub request: Vec<u8>,
    pub expect: Option<usize>,
}

/// A request sequence plus the reference bodies its checks compare with.
pub struct ReadMix<'a> {
    pub targets: &'a [Target],
    pub expected: &'a [Vec<u8>],
}

/// A failed or refused read counts as missing every latency limit.
pub const FAILED_LATENCY: u64 = u64::MAX;

#[derive(Debug, Default)]
pub struct ReadStats {
    pub attempted: u64,
    pub ok: u64,
    /// Transport errors and non-200 answers (503 and 408 included).
    pub failed: u64,
    /// 200 answers whose body differs from the reference.
    pub mismatched: u64,
    /// Responses compared byte for byte against a reference.
    pub compared: u64,
    pub reconnects: u64,
    /// Latency from the scheduled send time, ns (open loop only).
    pub latencies_ns: Vec<u64>,
    /// Actual send time minus scheduled send time, ns (open loop only).
    pub send_lags_ns: Vec<u64>,
    pub elapsed: Duration,
    /// `/metrics` gauge samples taken during the window (gauge windows of
    /// traced runs only): (dispatch queue depth, busy workers).
    pub gauges: Vec<(f64, f64)>,
}

impl ReadStats {
    pub fn merge(&mut self, other: ReadStats) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.compared += other.compared;
        self.reconnects += other.reconnects;
        self.latencies_ns.extend(other.latencies_ns);
        self.send_lags_ns.extend(other.send_lags_ns);
        self.gauges.extend(other.gauges);
    }
}

const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// Requests each closed-loop connection keeps in flight.
pub const PIPELINE_DEPTH: usize = 32;

/// The server's requests-per-connection limit, which `osdiv serve` keeps
/// at its default.
fn keep_alive_requests() -> usize {
    osdiv_serve::ServerOptions::default().max_keep_alive_requests
}

/// Per-connection state shared by both read loops.
struct Reader<'a> {
    server: &'a Server,
    mix: &'a ReadMix<'a>,
    conn: Conn,
    stats: ReadStats,
    /// Next gauge sample time; `None` when this connection does not sample.
    next_sample: Option<Instant>,
}

impl<'a> Reader<'a> {
    fn new(server: &'a Server, mix: &'a ReadMix<'a>, sample: bool) -> std::io::Result<Self> {
        Ok(Reader {
            server,
            mix,
            conn: Conn::connect(server.addr)?,
            stats: ReadStats::default(),
            next_sample: sample.then(Instant::now),
        })
    }

    /// Sends one read; returns whether it succeeded with correct output.
    fn read(&mut self, index: usize) -> bool {
        let target = &self.mix.targets[index % self.mix.targets.len()];
        let sent = self.conn.send(&self.server.ledger, &target.request);
        let good = match sent {
            Ok(reply) => {
                let good = check(&mut self.stats, self.mix, target, reply, self.conn.body());
                if reply.close {
                    self.reconnect();
                }
                good
            }
            Err(_) => {
                self.stats.attempted += 1;
                self.stats.failed += 1;
                self.reconnect();
                false
            }
        };
        self.sample();
        good
    }

    /// Sends `PIPELINE_DEPTH` reads starting at `index`, `stride` apart,
    /// as one pipelined batch. Opens a fresh connection first when the
    /// batch would cross the server's keep-alive request limit, so the
    /// server never closes a connection with requests still in flight.
    fn read_batch(&mut self, index: usize, stride: usize) {
        if self.conn.sent + PIPELINE_DEPTH > keep_alive_requests() {
            self.reconnect();
        }
        let len = self.mix.targets.len();
        let batch: Vec<&Target> = (0..PIPELINE_DEPTH)
            .map(|i| &self.mix.targets[(index + i * stride) % len])
            .collect();
        let requests: Vec<&[u8]> = batch.iter().map(|t| t.request.as_slice()).collect();
        let (stats, mix) = (&mut self.stats, self.mix);
        let mut answered = 0;
        let mut closed = false;
        let done = self
            .conn
            .pipeline(&self.server.ledger, &requests, |i, reply, body| {
                answered += 1;
                closed |= reply.close;
                check(stats, mix, batch[i], reply, body);
            });
        if done.is_err() {
            self.stats.attempted += (PIPELINE_DEPTH - answered) as u64;
            self.stats.failed += (PIPELINE_DEPTH - answered) as u64;
        }
        if done.is_err() || closed {
            self.reconnect();
        }
    }

    fn reconnect(&mut self) {
        self.stats.reconnects += 1;
        // A refused reconnect surfaces as a failed send on the next read.
        if let Ok(conn) = Conn::connect(self.server.addr) {
            self.conn = conn;
        }
    }

    /// Samples the saturation gauges over this connection's own keep-alive
    /// session: a separate connection would wait for a free worker.
    fn sample(&mut self) {
        let Some(due) = self.next_sample else { return };
        if Instant::now() < due {
            return;
        }
        self.next_sample = Some(due + SAMPLE_EVERY);
        if let Ok(reply) = self.conn.scrape(&self.server.ledger) {
            let text = String::from_utf8_lossy(self.conn.body());
            let gauge = |name: &str| {
                text.lines()
                    .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
                    .and_then(|value| value.parse::<f64>().ok())
            };
            if let (Some(depth), Some(busy)) = (
                gauge("osdiv_dispatch_queue_depth"),
                gauge("osdiv_workers_busy"),
            ) {
                self.stats.gauges.push((depth, busy));
            }
            if reply.close {
                self.reconnect();
            }
        }
    }
}

/// Counts one answered read; returns whether it is a 200 with the
/// expected body.
fn check(stats: &mut ReadStats, mix: &ReadMix, target: &Target, reply: Reply, body: &[u8]) -> bool {
    stats.attempted += 1;
    if reply.status != 200 {
        stats.failed += 1;
        return false;
    }
    let correct = match target.expect {
        Some(expected) => {
            stats.compared += 1;
            body == mix.expected[expected].as_slice()
        }
        None => !body.is_empty(),
    };
    if correct {
        stats.ok += 1;
    } else {
        stats.mismatched += 1;
    }
    correct
}

fn failed_to_connect(connections: usize) -> ReadStats {
    ReadStats {
        attempted: connections as u64,
        failed: connections as u64,
        ..ReadStats::default()
    }
}

/// Closed loop: `connections` clients send back to back for `duration`,
/// taking the mix's targets in turn from position `start`.
pub fn closed_loop(
    server: &Server,
    mix: &ReadMix,
    connections: usize,
    duration: Duration,
    start: usize,
) -> ReadStats {
    let started = Instant::now();
    let deadline = started + duration;
    let parts: Vec<ReadStats> = thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|id| {
                scope.spawn(move || {
                    let Ok(mut reader) = Reader::new(server, mix, false) else {
                        return failed_to_connect(1);
                    };
                    let mut index = start + id;
                    while Instant::now() < deadline {
                        reader.read_batch(index, connections);
                        index += connections * PIPELINE_DEPTH;
                    }
                    reader.stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut stats = ReadStats::default();
    for part in parts {
        stats.merge(part);
    }
    stats.elapsed = started.elapsed();
    stats
}

/// One pass over `mix` on a single connection (the set-up warm pass).
pub fn closed_loop_once(server: &Server, mix: &ReadMix) -> ReadStats {
    let started = Instant::now();
    let Ok(mut reader) = Reader::new(server, mix, false) else {
        return failed_to_connect(1);
    };
    for index in 0..mix.targets.len() {
        reader.read(index);
    }
    reader.stats.elapsed = started.elapsed();
    reader.stats
}

/// Open loop: request `i` is due at `schedule[i]` ns after the start and
/// goes out on whichever of `connections` keep-alive connections is free
/// first; its latency runs from the due time, so waiting for a free
/// connection counts against the server.
pub fn open_loop(
    server: &Server,
    mix: &ReadMix,
    connections: usize,
    schedule: &[u64],
    sample: bool,
) -> ReadStats {
    let next = AtomicUsize::new(0);
    let ready = std::sync::Barrier::new(connections);
    let start = Mutex::new(None::<Instant>);
    let parts: Vec<ReadStats> = thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|id| {
                let (next, ready, start) = (&next, &ready, &start);
                scope.spawn(move || {
                    let reader = Reader::new(server, mix, sample && id == 0);
                    ready.wait();
                    let started = *start
                        .lock()
                        .expect("start lock")
                        .get_or_insert_with(|| Instant::now() + Duration::from_millis(5));
                    let Ok(mut reader) = reader else {
                        return failed_to_connect(1);
                    };
                    reader
                        .stats
                        .latencies_ns
                        .reserve(schedule.len() / connections + 16);
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = schedule.get(index) else {
                            break;
                        };
                        let due = started + Duration::from_nanos(offset);
                        let now = Instant::now();
                        if now < due {
                            thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        reader.stats.send_lags_ns.push(nanos(sent - due));
                        let good = reader.read(index);
                        let latency = if good {
                            nanos(Instant::now() - due)
                        } else {
                            FAILED_LATENCY
                        };
                        reader.stats.latencies_ns.push(latency);
                    }
                    reader.stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("open-loop client panicked"))
            .collect()
    });
    let mut stats = ReadStats::default();
    for part in parts {
        stats.merge(part);
    }
    let started = start
        .into_inner()
        .expect("start lock")
        .unwrap_or_else(Instant::now);
    stats.elapsed = started.elapsed();
    stats
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX - 1)
}

/// One feed with what ingesting it in-process produced.
pub struct Feed {
    pub bytes: Vec<u8>,
    /// The `"entries":…,"skipped":…,"feed_bytes":…` part of the expected
    /// 201 body.
    pub expected_counts: String,
    /// `GET /v1/report?format=json` of the ingested dataset, rendered
    /// in-process.
    pub expected_report: Vec<u8>,
}

/// Wire chunk size of feed uploads.
pub const UPLOAD_CHUNK: usize = 64 * 1024;

#[derive(Debug, Default)]
pub struct UploadStats {
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub compared: u64,
    /// Feed bytes of completed PUTs.
    pub bytes: u64,
    pub put_latencies_ns: Vec<u64>,
    /// Wall time of the upload window.
    pub elapsed: Duration,
    /// Datasets kept for the report check after the phase: (name, feed).
    pub kept: Vec<(String, usize)>,
}

/// The uploader: one keep-alive connection streaming the run's feeds as
/// chunked `PUT /v1/datasets/{name}` under fresh names, deleting each
/// dataset again unless it is kept for the report check (the first upload
/// of each feed). It starts uploads for `duration` and finishes the one in
/// flight when that ends.
pub fn upload_loop(
    server: &Server,
    feeds: &[Feed],
    serial: &AtomicUsize,
    duration: Duration,
) -> UploadStats {
    let mut stats = UploadStats::default();
    let started = Instant::now();
    let deadline = started + duration;
    let mut conn = Conn::connect(server.addr).ok();
    while Instant::now() < deadline {
        let n = serial.fetch_add(1, Ordering::SeqCst);
        let feed_index = n % feeds.len();
        let feed = &feeds[feed_index];
        let name = format!("u{n}");
        let Some(c) = conn.as_mut() else {
            stats.attempted += 1;
            stats.failed += 1;
            conn = Conn::connect(server.addr).ok();
            continue;
        };
        stats.attempted += 1;
        let put_started = Instant::now();
        let put = c.send_chunked(
            &server.ledger,
            "PUT",
            &format!("/v1/datasets/{name}"),
            &feed.bytes,
            UPLOAD_CHUNK,
        );
        let latency = nanos(put_started.elapsed());
        match put {
            Ok(reply) if reply.status == 201 => {
                stats.compared += 1;
                if String::from_utf8_lossy(c.body()).contains(&feed.expected_counts) {
                    stats.bytes += feed.bytes.len() as u64;
                    stats.put_latencies_ns.push(latency);
                } else {
                    stats.mismatched += 1;
                }
            }
            _ => {
                stats.failed += 1;
                conn = Conn::connect(server.addr).ok();
                continue;
            }
        }
        if n < feeds.len() {
            stats.kept.push((name, feed_index));
            continue;
        }
        stats.attempted += 1;
        let target = format!("/v1/datasets/{name}");
        let request = format!("DELETE {target} HTTP/1.1\r\nHost: osdiv\r\n\r\n");
        match c.send(&server.ledger, request.as_bytes()) {
            Ok(reply) if reply.status == 200 => {}
            _ => {
                stats.failed += 1;
                conn = Conn::connect(server.addr).ok();
            }
        }
    }
    stats.elapsed = started.elapsed();
    stats
}

/// Checks each kept dataset's `/v1/report?format=json` against the
/// in-process reference, then deletes it.
pub fn verify_kept(server: &Server, feeds: &[Feed], kept: &[(String, usize)]) -> UploadStats {
    let mut stats = UploadStats::default();
    for (name, feed) in kept {
        stats.attempted += 2;
        match server.get(&format!("/v1/report?dataset={name}&format=json")) {
            Ok((200, body)) => {
                stats.compared += 1;
                if body != feeds[*feed].expected_report {
                    stats.mismatched += 1;
                }
            }
            _ => stats.failed += 1,
        }
        let request = format!("DELETE /v1/datasets/{name} HTTP/1.1\r\nHost: osdiv\r\n\r\n");
        if !matches!(server.one_shot(request.as_bytes()), Ok((200, _))) {
            stats.failed += 1;
        }
    }
    stats
}
