//! `perfbench`: the osdiv end-to-end benchmark.
//!
//! Boots the shipped `osdiv serve` binary as a child process, drives one
//! seeded workload against it, checks every output it can against
//! in-process references, reconciles the server's own `/metrics` counters
//! with the client's counts, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics) as one JSON line at the end.
//!
//! ```text
//! perfbench --osdiv PATH --workload cached_read|render_miss
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.py` next to this package builds both binaries and runs this one.

mod client;
mod inputs;
mod load;
mod reference;
mod server;
mod traced;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::thread;
use std::time::{Duration, Instant};

use load::{ReadMix, ReadStats, Target, UploadStats, FAILED_LATENCY};
use server::{Metrics, Server, SCRAPES, SCRAPE_BYTES};

/// Offered rates in requests per second, fixed once from the closed-loop
/// capacity of the parent commit on a 2-vCPU box with two connections and
/// one request in flight on each (about 55k/s for `cached_read`, 15k/s
/// for `render_miss`): `lo` is about 5% of it and `hi` about 30%, except
/// the `cached_read` hi rate, at 20%: at 30% its p90 moved by a quarter
/// between runs on a shared host. They are constants so that runs of
/// different commits offer the same load.
const CACHED_LO_RPS: f64 = 2750.0;
const CACHED_HI_RPS: f64 = 11000.0;
const MISS_LO_RPS: f64 = 750.0;
const MISS_HI_RPS: f64 = 4500.0;

/// Rounds per run. Each round runs one window of every phase and boots
/// one server for a set-up sample; the end-to-end figures are taken over
/// the windows and boots with the least CPU steal (see [`quiet`]).
const ROUNDS: usize = 40;

/// Requests generated for a closed-loop phase; the clients cycle through
/// them.
const CLOSED_LOOP_TARGETS: usize = 20_000;

/// `render_miss` responses checked byte for byte: this many seeded
/// positions per generated sequence, and every other request for the
/// same document.
const MISS_SAMPLES_PER_SEQUENCE: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    CachedRead,
    RenderMiss,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "cached_read" => Some(Kind::CachedRead),
            "render_miss" => Some(Kind::RenderMiss),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::CachedRead => "cached_read",
            Kind::RenderMiss => "render_miss",
        }
    }

    /// (lo, hi) offered read rates.
    fn rates(self) -> (f64, f64) {
        match self {
            Kind::CachedRead => (CACHED_LO_RPS, CACHED_HI_RPS),
            Kind::RenderMiss => (MISS_LO_RPS, MISS_HI_RPS),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    osdiv: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut osdiv = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            "--osdiv" => osdiv = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(36);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        osdiv: osdiv.ok_or("--osdiv is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    }
}

/// One open-loop window's generated inputs.
struct OpenWindow {
    targets: Vec<String>,
    /// Poisson send offsets, ns from the window's start.
    schedule: Vec<u64>,
}

/// Everything a run sends, derived from the workload seed alone.
struct Inputs {
    /// The closed-loop sequence; capacity windows continue where the
    /// previous one stopped, cycling.
    capacity: Vec<String>,
    /// Per round: the `lo` and the `hi` window.
    open: Vec<[OpenWindow; 2]>,
    /// `render_miss` targets checked against a reference.
    sampled: Vec<String>,
    feeds: Vec<Vec<u8>>,
}

fn generate(kind: Kind, seed: u64, window_seconds: f64) -> Inputs {
    let docs = inputs::default_documents();
    let targets = |stream: u64, n: usize| -> Vec<String> {
        match kind {
            Kind::RenderMiss => inputs::render_miss_sequence(seed, stream, n),
            Kind::CachedRead => inputs::cached_sequence(seed, stream, n)
                .into_iter()
                .map(|doc| docs[doc].clone())
                .collect(),
        }
    };
    let (lo, hi) = kind.rates();
    let open: Vec<[OpenWindow; 2]> = (0..ROUNDS as u64)
        .map(|round| {
            [(lo, 100), (hi, 300)].map(|(rate, stream)| {
                let schedule =
                    inputs::poisson_schedule(seed, stream + 100 + round, rate, window_seconds);
                OpenWindow {
                    targets: targets(stream + round, schedule.len()),
                    schedule,
                }
            })
        })
        .collect();
    let capacity = targets(1, CLOSED_LOOP_TARGETS);
    let mut sampled = Vec::new();
    if kind == Kind::RenderMiss {
        let mut rng = inputs::Rng::new(seed, 0x5a3);
        let sequences = std::iter::once(&capacity)
            .chain(open.iter().flat_map(|pair| pair.iter().map(|w| &w.targets)));
        for sequence in sequences.filter(|s| !s.is_empty()) {
            for _ in 0..MISS_SAMPLES_PER_SEQUENCE {
                sampled.push(sequence[rng.below(sequence.len())].clone());
            }
        }
    }
    Inputs {
        capacity,
        open,
        sampled,
        feeds: inputs::feeds(seed),
    }
}

fn fingerprint(inputs: &Inputs) -> u64 {
    let mut hash = inputs::FNV_OFFSET;
    let windows = inputs.open.iter().flatten();
    for target in inputs
        .capacity
        .iter()
        .chain(windows.clone().flat_map(|w| &w.targets))
    {
        hash = inputs::fnv1a(hash, target.as_bytes());
    }
    for offset in windows.flat_map(|w| &w.schedule) {
        hash = inputs::fnv1a(hash, &offset.to_le_bytes());
    }
    for target in &inputs.sampled {
        hash = inputs::fnv1a(hash, target.as_bytes());
    }
    for feed in &inputs.feeds {
        hash = inputs::fnv1a(hash, feed);
    }
    hash
}

/// Reference bodies by request target.
struct References {
    study: osdiv_core::Study,
    bodies: Vec<Vec<u8>>,
    index: HashMap<String, usize>,
}

impl References {
    fn new() -> References {
        let study = reference::boot_study();
        study.run_all().expect("boot analyses run");
        References {
            study,
            bodies: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn add(&mut self, target: &str) {
        if !self.index.contains_key(target) {
            self.bodies.push(reference::render(&self.study, target));
            self.index.insert(target.to_string(), self.bodies.len() - 1);
        }
    }

    fn body(&self, target: &str) -> Option<&[u8]> {
        self.index.get(target).map(|&i| self.bodies[i].as_slice())
    }
}

fn to_targets(strings: &[String], refs: &References) -> Vec<Target> {
    strings
        .iter()
        .map(|target| Target {
            request: client::get_request(target),
            expect: refs.index.get(target).copied(),
        })
        .collect()
}

/// Removes the run's data directories however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Operations attempted and failed, across every phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
    compared: u64,
}

impl Tally {
    fn reads(&mut self, stats: &ReadStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        self.mismatched += stats.mismatched;
        self.compared += stats.compared;
    }

    fn uploads(&mut self, stats: &UploadStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        self.mismatched += stats.mismatched;
        self.compared += stats.compared;
    }
}

/// Scrapes `/metrics` once the server has accounted for every response
/// sent so far, and checks its counters against the client's ledger:
/// `osdiv_requests_served` counts this scrape too, `osdiv_bytes_out`
/// everything written before it. A worker may record its last write a
/// moment after the client has read it, so a short mismatch is retried.
fn reconciled_scrape(server: &Server) -> Result<(Metrics, bool), String> {
    let mut last = None;
    for attempt in 0..20u64 {
        thread::sleep(Duration::from_millis(10 + 20 * attempt));
        let requests = server.ledger.requests() + 1;
        let bytes = server.ledger.bytes();
        let metrics = server
            .scrape()
            .map_err(|e| format!("scraping /metrics: {e}"))?;
        if metrics.get("osdiv_requests_served") == requests as f64
            && metrics.get("osdiv_bytes_out") == bytes as f64
        {
            return Ok((metrics, true));
        }
        last = Some(metrics);
    }
    Ok((last.expect("at least one scrape"), false))
}

/// The counters between two windows: `at` ends the window before, and
/// `next`, scraped right after it, starts the next one. Only their own
/// `/metrics` traffic reaches the server between the two, so `next - at`
/// is what scraping costs the stage histograms; see [`reads_only`].
struct Checkpoint {
    at: Metrics,
    next: Metrics,
}

fn checkpoint(server: &Server) -> Result<(Checkpoint, bool), String> {
    let (at, at_ok) = reconciled_scrape(server)?;
    let (next, next_ok) = reconciled_scrape(server)?;
    Ok((Checkpoint { at, next }, at_ok && next_ok))
}

/// A read window's `/metrics` deltas without the benchmark's own scrapes.
/// Requests and bytes out come off exactly, by the client's count of
/// scrapes and of their reply bytes. Each scrape in the window also added
/// one parse and one write to the stage histograms; those come off at the
/// mean cost per scrape measured between the checkpoint's two scrapes.
fn reads_only(window: &Metrics, checkpoint: &Checkpoint) -> Metrics {
    let scraping = checkpoint.next.diff(&checkpoint.at);
    let scrapes = window.get(SCRAPES);
    let share = scrapes / scraping.get(SCRAPES).max(1.0);
    let mut reads = window.clone();
    reads.set(
        "osdiv_requests_served",
        window.get("osdiv_requests_served") - scrapes,
    );
    reads.set(
        "osdiv_bytes_out",
        window.get("osdiv_bytes_out") - window.get(SCRAPE_BYTES),
    );
    for stage in ["parse", "write"] {
        for part in ["_count", "_sum"] {
            let name = format!("{STAGES}{part}{{stage=\"{stage}\"}}");
            reads.set(&name, window.get(&name) - share * scraping.get(&name));
        }
    }
    reads
}

/// Spawns a server and waits until it is ready: `/v1/healthz` answers
/// and one pass over the 27 default documents is done. Returns the
/// server, the pass and the seconds from spawn to ready.
fn boot(
    args: &Args,
    threads: usize,
    data_dir: &std::path::Path,
    warm: &ReadMix,
) -> Result<(Server, ReadStats, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(&args.osdiv, threads, data_dir)
        .map_err(|e| format!("starting {}: {e}", args.osdiv.display()))?;
    loop {
        match server.get("/v1/healthz") {
            Ok((200, _)) => break,
            _ if started.elapsed() > Duration::from_secs(30) => {
                return Err("the server never became healthy".into())
            }
            _ => thread::sleep(Duration::from_millis(1)),
        }
    }
    let stats = load::closed_loop_once(&server, warm);
    Ok((server, stats, started.elapsed().as_secs_f64()))
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

fn mean_us(sorted: &[u64]) -> f64 {
    let ok = sorted.iter().filter(|&&l| l != FAILED_LATENCY);
    let (n, sum) = ok.fold((0u64, 0u64), |(n, sum), &l| (n + 1, sum + l));
    sum as f64 / n.max(1) as f64 / 1e3
}

const STAGES: &str = "osdiv_stage_duration_seconds";
const ROUTES: &str = "osdiv_request_duration_seconds";

/// The per-stage table of a read phase: `/metrics` stage means per read
/// request plus the residual, summing to the client's mean latency.
struct StageTable {
    reads: f64,
    rows: Vec<(&'static str, f64)>,
    server_mean_us: f64,
    residual_us: f64,
}

fn stage_table(delta: &Metrics, client_mean_us: Option<f64>) -> StageTable {
    let (mut reads, mut server_sum) = (0.0, 0.0);
    for route in ["report", "analyses"] {
        let (count, sum) = delta.hist(ROUTES, &format!("{{route=\"{route}\"}}"));
        reads += count;
        server_sum += sum;
    }
    let per_read = |sum: f64| if reads > 0.0 { sum / reads } else { 0.0 };
    let server_mean_us = per_read(server_sum);
    let mut rows = Vec::new();
    let mut staged = 0.0;
    for stage in ["parse", "cache_lookup", "render", "write"] {
        let value = per_read(delta.hist(STAGES, &format!("{{stage=\"{stage}\"}}")).1);
        staged += value;
        rows.push((stage, value));
    }
    rows.push(("router_other", server_mean_us - staged));
    let residual_us = client_mean_us.map_or(0.0, |client| client - server_mean_us);
    if client_mean_us.is_some() {
        rows.push(("residual", residual_us));
    }
    StageTable {
        reads,
        rows,
        server_mean_us,
        residual_us,
    }
}

/// One window of a read phase.
struct Window {
    /// Sorted latencies, ns (none for pipelined closed-loop reads).
    latencies: Vec<u64>,
    /// Completed correct reads per second.
    rate: f64,
    /// CPU steal ticks (`/proc/stat`) while the window ran.
    steal: u64,
}

/// The items measured while the hypervisor stole the least CPU: the
/// quietest third by steal ticks, ties included. With no steal at all,
/// every item.
fn quiet<T>(items: &[(T, u64)]) -> Vec<&T> {
    let mut steals: Vec<u64> = items.iter().map(|(_, steal)| *steal).collect();
    steals.sort_unstable();
    let Some(&cutoff) = steals.get(steals.len().saturating_sub(1) / 3) else {
        return Vec::new();
    };
    items
        .iter()
        .filter(|(_, steal)| *steal <= cutoff)
        .map(|(item, _)| item)
        .collect()
}

/// One read phase (`capacity`, `lo` or `hi`) over every round.
struct Phase {
    name: &'static str,
    /// All windows merged.
    stats: ReadStats,
    windows: Vec<Window>,
    /// `/metrics` deltas summed over the phase's windows.
    delta: Metrics,
}

impl Phase {
    fn new(name: &'static str) -> Phase {
        Phase {
            name,
            stats: ReadStats::default(),
            windows: Vec::new(),
            delta: Metrics::default(),
        }
    }

    fn record(&mut self, mut stats: ReadStats, delta: &Metrics, steal: u64) {
        self.windows.push(Window {
            latencies: sorted(std::mem::take(&mut stats.latencies_ns)),
            rate: stats.ok as f64 / stats.elapsed.as_secs_f64().max(1e-9),
            steal,
        });
        self.stats.merge(stats);
        self.delta.add(delta);
    }

    /// One per-window figure, median over the quiet windows.
    fn median_of(&self, figure: impl Fn(&Window) -> f64) -> f64 {
        let steals: Vec<(&Window, u64)> = self.windows.iter().map(|w| (w, w.steal)).collect();
        median(quiet(&steals).into_iter().map(|w| figure(w)).collect())
    }

    /// A latency quantile over the quiet windows' reads pooled, µs.
    fn latency_us(&self, q: f64) -> f64 {
        let steals: Vec<(&Window, u64)> = self.windows.iter().map(|w| (w, w.steal)).collect();
        let pooled = sorted(
            quiet(&steals)
                .into_iter()
                .flat_map(|w| w.latencies.iter().copied())
                .collect(),
        );
        us(quantile(&pooled, q))
    }

    /// Every window's latencies together (tail diagnostics).
    fn pooled(&self) -> Vec<u64> {
        sorted(
            self.windows
                .iter()
                .flat_map(|w| w.latencies.iter().copied())
                .collect(),
        )
    }
}

/// Metric lines, printed and then emitted as the final JSON object.
#[derive(Default)]
struct Out(Vec<(String, f64, &'static str)>);

impl Out {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

fn proc_stat_steal() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The timer slack of the main thread, which spawns the generator threads
/// and the servers; new threads and processes inherit it.
struct TimerSlack {
    default: Option<String>,
}

impl TimerSlack {
    const PATH: &'static str = "/proc/self/timerslack_ns";

    /// The open-loop clients sleep until each request is due; the default
    /// 50 µs slack would add up to that much to every measured latency.
    /// Best effort: without the file the run goes on at the default.
    fn tighten() -> TimerSlack {
        let default = std::fs::read_to_string(Self::PATH).ok();
        let _ = std::fs::write(Self::PATH, "1000");
        TimerSlack { default }
    }

    /// Runs `spawn` at the default slack, so servers started in it keep
    /// the default.
    fn relaxed<R>(&self, spawn: impl FnOnce() -> R) -> R {
        if let Some(default) = &self.default {
            let _ = std::fs::write(Self::PATH, default.trim());
        }
        let result = spawn();
        let _ = std::fs::write(Self::PATH, "1000");
        result
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let kind = args.kind;
    let nproc = thread::available_parallelism().map_or(1, |n| n.get());
    let steal_before = proc_stat_steal();
    // Per round: capacity, lo, hi and upload windows, and in traced runs a
    // gauge window.
    let windows_per_round = 4 + usize::from(args.trace);
    let window_seconds = args.seconds as f64 / (ROUNDS * windows_per_round) as f64;
    let window = Duration::from_secs_f64(window_seconds);
    // Server workers equal the reader connections, at most nproc. The
    // uploader has its window to itself.
    let readers = nproc.max(1);

    // Inputs, and the self-test that they are a function of the seed.
    let inputs = generate(kind, args.seed, window_seconds);
    let same = fingerprint(&generate(kind, args.seed, window_seconds)) == fingerprint(&inputs);
    let differs = fingerprint(&generate(kind, args.seed.wrapping_add(1), window_seconds))
        != fingerprint(&inputs);
    println!(
        "self-test: same seed reproduces inputs: {same}; another seed changes them: {differs}"
    );

    let mut refs = References::new();
    let docs = inputs::default_documents();
    for target in docs.iter().chain(&inputs.sampled) {
        refs.add(target);
    }
    let feeds: Vec<load::Feed> = inputs.feeds.iter().cloned().map(reference::feed).collect();
    let warm_targets = to_targets(&docs, &refs);
    let warm = ReadMix {
        targets: &warm_targets,
        expected: &refs.bodies,
    };
    let capacity_targets = to_targets(&inputs.capacity, &refs);
    let capacity_mix = ReadMix {
        targets: &capacity_targets,
        expected: &refs.bodies,
    };

    let work = WorkDir(PathBuf::from(format!(
        ".perfbench/work-{}",
        std::process::id()
    )));
    let data_dir = work.0.join("data");
    let boot_dir = work.0.join("boot");
    for dir in [&data_dir, &boot_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }

    let mut tally = Tally::default();
    let mut reconciled = true;
    let steal = proc_stat_steal();
    let (server, warm_stats, setup) = boot(args, readers, &data_dir, &warm)?;
    tally.reads(&warm_stats);
    let mut setups = vec![(setup, proc_stat_steal().saturating_sub(steal))];
    let slack = TimerSlack::tighten();

    let serial = AtomicUsize::new(0);
    // Each upload window with the steal ticks while it ran.
    let mut uploads: Vec<(UploadStats, u64)> = Vec::new();
    let mut phases = [Phase::new("capacity"), Phase::new("lo"), Phase::new("hi")];
    // (dispatch queue depth, busy workers), sampled in the gauge windows.
    let mut gauges: Vec<(f64, f64)> = Vec::new();
    let (first, ok) = checkpoint(&server)?;
    reconciled &= ok;
    let mut previous = first.next.clone();
    let mut cursor = 0;
    // Rounds interleave every window type, so a burst of CPU steal lands
    // in one window of each rather than in a whole phase; each metric is
    // taken over the windows (and boots) with the least steal.
    for round in 0..ROUNDS {
        if round > 0 {
            // One more set-up sample, booted beside the idle main server
            // on an empty data dir of its own.
            let steal = proc_stat_steal();
            let booted = slack.relaxed(|| boot(args, readers, &boot_dir, &warm));
            let (extra, stats, setup) = booted?;
            tally.reads(&stats);
            setups.push((setup, proc_stat_steal().saturating_sub(steal)));
            extra
                .shutdown()
                .map_err(|e| format!("stopping a set-up server: {e}"))?;
        }
        for (p, phase) in phases.iter_mut().enumerate() {
            let steal = proc_stat_steal();
            let stats = match p {
                0 => load::closed_loop(&server, &capacity_mix, readers, window, cursor),
                _ => {
                    let open = &inputs.open[round][p - 1];
                    let targets = to_targets(&open.targets, &refs);
                    let mix = ReadMix {
                        targets: &targets,
                        expected: &refs.bodies,
                    };
                    load::open_loop(&server, &mix, readers, &open.schedule, false)
                }
            };
            let steal = proc_stat_steal().saturating_sub(steal);
            if p == 0 {
                cursor += stats.attempted as usize;
            }
            tally.reads(&stats);
            let (after, ok) = checkpoint(&server)?;
            reconciled &= ok;
            phase.record(stats, &reads_only(&after.at.diff(&previous), &after), steal);
            previous = after.next;
        }
        let steal = proc_stat_steal();
        let upload = load::upload_loop(&server, &feeds, &serial, window);
        tally.uploads(&upload);
        uploads.push((upload, proc_stat_steal().saturating_sub(steal)));
        let (after, ok) = checkpoint(&server)?;
        reconciled &= ok;
        previous = after.next;
        if args.trace {
            // The hi window again, with reader connection 0 sampling the
            // saturation gauges. Its scrapes stay out of the read phases.
            let open = &inputs.open[round][1];
            let targets = to_targets(&open.targets, &refs);
            let mix = ReadMix {
                targets: &targets,
                expected: &refs.bodies,
            };
            let mut stats = load::open_loop(&server, &mix, readers, &open.schedule, true);
            gauges.append(&mut stats.gauges);
            tally.reads(&stats);
            let (after, ok) = checkpoint(&server)?;
            reconciled &= ok;
            previous = after.next;
        }
    }
    let kept: Vec<(String, usize)> = uploads.iter().flat_map(|(u, _)| u.kept.clone()).collect();
    tally.uploads(&load::verify_kept(&server, &feeds, &kept));
    let (last, ok) = checkpoint(&server)?;
    reconciled &= ok;
    let last = last.at;
    let rss_peak_mb = server
        .peak_rss_mb()
        .map_err(|e| format!("reading VmHWM: {e}"))?;
    server
        .shutdown()
        .map_err(|e| format!("stopping the server: {e}"))?;
    let steal_ticks = proc_stat_steal().saturating_sub(steal_before);

    // Human-readable report.
    println!(
        "setup: {} boots, seconds to ready {:?}",
        setups.len(),
        setups
            .iter()
            .map(|(s, _)| format!("{s:.4}"))
            .collect::<Vec<_>>()
    );
    for phase in &phases {
        print_phase(phase);
    }
    let quiet_uploads = quiet(&uploads);
    let put_latencies = sorted(
        quiet_uploads
            .iter()
            .flat_map(|u| u.put_latencies_ns.clone())
            .collect(),
    );
    // Feed bytes of completed PUTs over the upload windows' wall time.
    let ingest_mbps = |windows: &[&UploadStats]| {
        let bytes: u64 = windows.iter().map(|u| u.bytes).sum();
        let wall: f64 = windows.iter().map(|u| u.elapsed.as_secs_f64()).sum();
        bytes as f64 / wall.max(1e-9) / 1e6
    };
    let all_uploads: Vec<&UploadStats> = uploads.iter().map(|(u, _)| u).collect();
    println!(
        "uploads: {} PUTs in quiet windows; {:.1} MB/s over all {} upload windows, {:.1} MB/s over the quiet ones; {} report checks",
        put_latencies.len(),
        ingest_mbps(&all_uploads),
        all_uploads.len(),
        ingest_mbps(&quiet_uploads),
        kept.len()
    );
    let failures = tally.failed + tally.mismatched;
    println!(
        "fail_ratio {} ratio (failed {} + mismatched {} of {} attempted; {} outputs compared byte for byte)",
        failures as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.mismatched,
        tally.attempted,
        tally.compared
    );
    println!(
        "counters: /metrics osdiv_requests_served and osdiv_bytes_out equal the client's counts at all {} scrapes: {reconciled}",
        2 * (2 + ROUNDS * windows_per_round)
    );

    let mut out = Out::default();
    let mut replay_ok = true;
    if !args.trace {
        out.push(
            "setup_s",
            median(quiet(&setups).into_iter().copied().collect()),
            "s",
        );
        out.push("capacity_rps", phases[0].median_of(|w| w.rate), "1/s");
        out.push("p50_us.lo", phases[1].latency_us(0.50), "us");
        out.push("p90_us.lo", phases[1].latency_us(0.90), "us");
        out.push("p50_us.hi", phases[2].latency_us(0.50), "us");
        out.push("p90_us.hi", phases[2].latency_us(0.90), "us");
        out.push("ingest_mbps", ingest_mbps(&quiet_uploads), "MB/s");
        out.push(
            "ingest_p50_ms",
            quantile(&put_latencies, 0.50) as f64 / 1e6,
            "ms",
        );
        out.push("rss_peak_mb", rss_peak_mb, "MiB");
    } else {
        let mut reads_delta = Metrics::default();
        for phase in &phases {
            reads_delta.add(&phase.delta);
        }
        per_layer_live(
            &mut out,
            &phases,
            &gauges,
            &reads_delta,
            &last.diff(&first.next),
            &last,
        );
        let hi_targets: Vec<String> = inputs
            .open
            .iter()
            .flat_map(|pair| pair[1].targets.iter().cloned())
            .take(traced::MAX_REPLAYED_READS)
            .collect();
        let expected = |target: &str| refs.body(target);
        let mut untraced = traced::Tracer::new(false);
        let started = Instant::now();
        let off_counts = traced::replay(
            &mut untraced,
            &hi_targets,
            &expected,
            &inputs.feeds,
            &work.0.join("replay-off"),
            "off",
        );
        let off = started.elapsed().as_secs_f64();
        let mut tracer = traced::Tracer::new(true);
        let started = Instant::now();
        let counts = traced::replay(
            &mut tracer,
            &hi_targets,
            &expected,
            &inputs.feeds,
            &work.0.join("replay-on"),
            "on",
        );
        let on = started.elapsed().as_secs_f64();
        let replay_failures =
            off_counts.failed + off_counts.mismatched + counts.failed + counts.mismatched;
        replay_ok = replay_failures == 0;
        println!(
            "replay: {} reads and {} feeds in-process, twice; {replay_failures} failed or mismatched; {off:.3} s untraced, {on:.3} s traced",
            counts.reads, counts.feeds,
        );
        let spans = PathBuf::from(format!(
            ".perfbench/spans-{}-seed{}.json",
            kind.name(),
            args.seed
        ));
        std::fs::write(&spans, tracer.chrome_json())
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        println!(
            "spans: {} (Chrome trace-event JSON, loads in Perfetto)",
            spans.display()
        );
        print_self_times(&tracer);
        per_layer_replay(&mut out, &tracer, &counts);
        out.push("trace.overhead_pct", (on - off) / off * 100.0, "%");
    }

    let correct = same
        && differs
        && reconciled
        && replay_ok
        && failures == 0
        && out.0.iter().all(|(_, value, _)| value.is_finite());
    for (name, value, unit) in &out.0 {
        println!("{name} {value} {unit}");
    }
    println!("{}", environment(kind, args, nproc, readers, steal_ticks));
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failures}, \"metrics\": {{",
        tally.attempted
    );
    for (i, (name, value, unit)) in out.0.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

fn print_phase(phase: &Phase) {
    let stats = &phase.stats;
    let pooled = phase.pooled();
    let mean = mean_us(&pooled);
    println!(
        "phase {}: {} windows, {} reads, {} ok, {} failed, {} mismatched, {} compared, {} reconnects; server counted {} requests and {} bytes",
        phase.name,
        phase.windows.len(),
        stats.attempted,
        stats.ok,
        stats.failed,
        stats.mismatched,
        stats.compared,
        stats.reconnects,
        phase.delta.get("osdiv_requests_served"),
        phase.delta.get("osdiv_bytes_out"),
    );
    println!(
        "  latency us, quiet windows pooled: p50 {:.1}  p90 {:.1};  all windows pooled: p99 {:.1}  p999 {:.1}  mean {:.1}  ({} samples)",
        phase.latency_us(0.5),
        phase.latency_us(0.9),
        us(quantile(&pooled, 0.99)),
        us(quantile(&pooled, 0.999)),
        mean,
        pooled.len()
    );
    let per_window: Vec<String> = phase
        .windows
        .iter()
        .map(|w| match w.latencies.is_empty() {
            true => format!("{:.0}/s steal {}", w.rate, w.steal),
            false => format!(
                "{:.0}/s p50 {:.0}us steal {}",
                w.rate,
                us(quantile(&w.latencies, 0.5)),
                w.steal
            ),
        })
        .collect();
    println!("  windows: {}", per_window.join(", "));
    // Pipelined closed-loop reads have no per-request client latency.
    let client_mean = (!pooled.is_empty()).then_some(mean);
    let table = stage_table(&phase.delta, client_mean);
    let mut line = format!(
        "  stages per read (us, {} reads; server mean {:.1}):",
        table.reads, table.server_mean_us
    );
    for (stage, value) in &table.rows {
        let _ = write!(line, " {stage} {value:.1}");
    }
    match client_mean {
        Some(mean) => {
            let _ = write!(line, " = client mean {mean:.1}");
        }
        None => line.push_str(" = server mean"),
    }
    println!("{line}");
}

/// The per-layer figures of the live run. `reads` holds the read phases'
/// deltas without the benchmark's scrapes, `run` the deltas from the
/// first checkpoint to the last, and `life` the counters since boot.
fn per_layer_live(
    out: &mut Out,
    phases: &[Phase; 3],
    gauges: &[(f64, f64)],
    reads: &Metrics,
    run: &Metrics,
    life: &Metrics,
) {
    let [_, lo, hi] = phases;
    let (lo_pooled, hi_pooled) = (lo.pooled(), hi.pooled());
    let lags = sorted(
        lo.stats
            .send_lags_ns
            .iter()
            .chain(&hi.stats.send_lags_ns)
            .copied()
            .collect(),
    );
    out.push("loadgen.send_lag_p99_us", us(quantile(&lags, 0.99)), "us");
    out.push("loadgen.p99_us.lo", us(quantile(&lo_pooled, 0.99)), "us");
    out.push("loadgen.p99_us.hi", us(quantile(&hi_pooled, 0.99)), "us");
    out.push("loadgen.p999_us.hi", us(quantile(&hi_pooled, 0.999)), "us");
    out.push("loadgen.samples.lo", lo_pooled.len() as f64, "count");
    out.push("loadgen.samples.hi", hi_pooled.len() as f64, "count");

    out.push(
        "server.connections_accepted",
        run.get("osdiv_connections_accepted"),
        "count",
    );
    // Counts that can be 0 in a healthy run: diagnostics, not metrics.
    let hits = reads.get("osdiv_cache_hits");
    let misses = reads.get("osdiv_cache_misses");
    println!(
        "diagnostics: reconnects {} shed {} io_timeouts {} dispatch_queue_depth.max {} (of {} gauge samples); read cache hits {hits} misses {misses}",
        phases.iter().map(|p| p.stats.reconnects).sum::<u64>(),
        run.get("osdiv_shed_total"),
        run.get("osdiv_io_timeouts_total"),
        gauges.iter().map(|g| g.0).fold(0.0, f64::max),
        gauges.len(),
    );
    out.push(
        "server.workers_busy.mean",
        gauges.iter().map(|g| g.1).sum::<f64>() / gauges.len().max(1) as f64,
        "count",
    );
    out.push(
        "server.residual_us",
        stage_table(&hi.delta, Some(mean_us(&hi_pooled))).residual_us,
        "us",
    );

    out.push(
        "http.parse_us",
        reads.hist_mean(STAGES, "{stage=\"parse\"}"),
        "us",
    );
    out.push(
        "http.write_us",
        reads.hist_mean(STAGES, "{stage=\"write\"}"),
        "us",
    );
    out.push(
        "http.bytes_out_per_req",
        reads.get("osdiv_bytes_out") / reads.get("osdiv_requests_served").max(1.0),
        "B",
    );
    for name in ["report", "analyses", "ingest"] {
        out.push(
            format!("router.request_us.{name}"),
            run.hist_mean(ROUTES, &format!("{{route=\"{name}\"}}")),
            "us",
        );
    }
    out.push(
        "router.cache_lookup_us",
        reads.hist_mean(STAGES, "{stage=\"cache_lookup\"}"),
        "us",
    );
    // Over the server's life: on `cached_read` only the set-up pass and
    // the kept datasets' reports render.
    out.push(
        "router.render_us",
        life.hist_mean(STAGES, "{stage=\"render\"}"),
        "us",
    );
    out.push(
        "router.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    out.push("router.cache_hits", hits, "count");

    for (name, stage) in [
        ("ingest.carve_ms", "ingest_carve"),
        ("ingest.parse_ms", "ingest_parse"),
        ("ingest.insert_ms", "ingest_insert"),
    ] {
        let label = format!("{{stage=\"{stage}\"}}");
        out.push(name, run.hist_mean(STAGES, &label) / 1e3, "ms");
    }
    out.push(
        "persist.journal_append_us",
        run.hist_mean("osdiv_journal_append_duration_seconds", ""),
        "us",
    );
    out.push(
        "persist.snapshot_write_ms",
        run.hist_mean("osdiv_snapshot_write_duration_seconds", "") / 1e3,
        "ms",
    );
}

fn print_self_times(tracer: &traced::Tracer) {
    println!("  span                              calls    mean us   self us");
    for (name, (calls, total, own)) in tracer.self_times() {
        let calls_f = calls.max(1) as f64;
        println!(
            "  {name:<32} {calls:>6} {:>10.1} {:>9.1}",
            total as f64 / calls_f / 1e3,
            own as f64 / calls_f / 1e3
        );
    }
}

fn per_layer_replay(out: &mut Out, tracer: &traced::Tracer, counts: &traced::ReplayCounts) {
    let times = tracer.self_times();
    // Mean self time per call, in µs.
    let self_us = |name: &str| {
        times.get(name).map_or(0.0, |&(calls, _, own)| {
            own as f64 / calls.max(1) as f64 / 1e3
        })
    };
    out.push("router.handle_us", self_us("router.handle"), "us");
    out.push("http.parse_us.replay", self_us("http.parse"), "us");
    out.push("http.write_us.replay", self_us("http.write"), "us");
    for analysis in inputs::ANALYSES {
        out.push(
            format!("study.sections_us.{analysis}"),
            self_us(&format!("study.sections.{analysis}")),
            "us",
        );
    }
    for format in inputs::FORMATS {
        out.push(
            format!("render.document_us.{format}"),
            self_us(&format!("render.document.{format}")),
            "us",
        );
    }
    out.push(
        "index.build_ms.boot",
        self_us("index.build.boot") / 1e3,
        "ms",
    );
    out.push(
        "index.build_ms.feed",
        self_us("index.build.feed") / 1e3,
        "ms",
    );
    let feeds = counts.feeds.max(1) as f64;
    out.push(
        "ingest.carve_ms.replay",
        counts.carve_us as f64 / feeds / 1e3,
        "ms",
    );
    out.push(
        "ingest.parse_ms.replay",
        counts.parse_us as f64 / feeds / 1e3,
        "ms",
    );
    out.push(
        "ingest.insert_ms.replay",
        counts.insert_us as f64 / feeds / 1e3,
        "ms",
    );
    out.push(
        "ingest.scan_work_per_byte",
        counts.scan_work as f64 / counts.feed_bytes.max(1) as f64,
        "ratio",
    );
    out.push(
        "persist.journal_append_us.replay",
        self_us("persist.journal_append"),
        "us",
    );
    out.push(
        "persist.snapshot_write_ms.replay",
        self_us("persist.snapshot_write") / 1e3,
        "ms",
    );
    out.push(
        "persist.snapshot_load_ms",
        self_us("persist.snapshot_load") / 1e3,
        "ms",
    );
    out.push(
        "persist.bytes_written_per_feed_byte",
        counts.persisted_bytes as f64 / counts.feed_bytes.max(1) as f64,
        "ratio",
    );
    out.push(
        "registry.get_tagged_us",
        self_us("registry.get_tagged"),
        "us",
    );
    out.push("registry.insert_ms", self_us("registry.insert") / 1e3, "ms");
    out.push("registry.remove_ms", self_us("registry.remove") / 1e3, "ms");
}

fn environment(kind: Kind, args: &Args, nproc: usize, readers: usize, steal_ticks: u64) -> String {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_string());
    let (lo, hi) = kind.rates();
    format!(
        "{{\"run_environment\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"server_threads\": {readers}, \"reader_connections\": {readers}, \
         \"upload_connections\": 1, \"generator_and_server_share_cpus\": true, \"pinned\": false, \
         \"steal_ticks\": {steal_ticks}, \"offered_rps\": {{\"lo\": {lo}, \"hi\": {hi}}}, \
         \"rustc\": \"{}\", \"commit\": \"{}\"}}}}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT"),
    )
}
