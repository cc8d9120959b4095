//! Seeded workload inputs: read-request mixes, Poisson send schedules and
//! NVD feeds. Everything here is a pure function of the workload seed, so
//! one seed always replays the same traffic; the server only ever sees the
//! generated requests.

use datagen::{ParametricConfig, ParametricGenerator};

/// The server's own dataset seed (`osdiv serve` default); never varied.
pub const DATASET_SEED: u64 = 2011;

/// Entries per uploaded feed (about 1 KB each, so about 3 MB per feed).
pub const FEED_ENTRIES: usize = 3000;

/// Distinct feeds generated per run; the uploader cycles through them
/// under fresh dataset names.
pub const FEEDS_PER_RUN: usize = 3;

/// The three output formats every document is served in.
pub const FORMATS: [&str; 3] = ["text", "csv", "json"];

/// The eight analyses, in registry order.
pub const ANALYSES: [&str; 8] = [
    "validity",
    "classes",
    "pairwise",
    "split",
    "releases",
    "temporal",
    "kway",
    "selection",
];

const OSES: [&str; 11] = [
    "openbsd",
    "netbsd",
    "freebsd",
    "opensolaris",
    "solaris",
    "debian",
    "ubuntu",
    "redhat",
    "win2000",
    "win2003",
    "win2008",
];

const PROFILES: [&str; 3] = ["fat", "thin", "isolated"];

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a purpose tag, so each input kind
    /// draws from its own stream and adding one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The 27 default documents: `/v1/report` and the eight analyses, each in
/// three formats. Index 2 is `/v1/report?format=json`.
pub fn default_documents() -> Vec<String> {
    let mut docs = Vec::with_capacity(27);
    for format in FORMATS {
        docs.push(format!("/v1/report?format={format}"));
    }
    for analysis in ANALYSES {
        for format in FORMATS {
            docs.push(format!("/v1/analyses/{analysis}?format={format}"));
        }
    }
    docs
}

/// Index of `/v1/report?format=json` in [`default_documents`].
pub const REPORT_JSON: usize = 2;

/// The `cached_read` mix: `/v1/report?format=json` one request in four,
/// the other 26 documents uniformly otherwise. Returns document indexes.
pub fn cached_sequence(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| {
            if rng.below(4) == 0 {
                REPORT_JSON
            } else {
                let other = rng.below(26);
                if other >= REPORT_JSON {
                    other + 1
                } else {
                    other
                }
            }
        })
        .collect()
}

fn os_subset(rng: &mut Rng) -> String {
    let size = 2 + rng.below(3);
    let mut picked: Vec<usize> = Vec::with_capacity(size);
    while picked.len() < size {
        let os = rng.below(OSES.len());
        if !picked.contains(&os) {
            picked.push(os);
        }
    }
    picked.sort_unstable();
    picked
        .iter()
        .map(|&os| OSES[os])
        .collect::<Vec<_>>()
        .join(",")
}

/// One `render_miss` request target, drawn from a key space of several
/// thousand documents (over ten times the server's 128-entry LRU).
pub fn render_miss_target(rng: &mut Rng) -> String {
    let format = FORMATS[rng.below(3)];
    match rng.below(5) {
        0 => format!(
            "/v1/analyses/pairwise?oses={}&format={format}",
            os_subset(rng)
        ),
        1 => format!("/v1/analyses/split?oses={}&format={format}", os_subset(rng)),
        2 => format!(
            "/v1/analyses/kway?profile={}&max_k={}&format={format}",
            PROFILES[rng.below(3)],
            2 + rng.below(8)
        ),
        3 => {
            let first = 1993 + rng.below(18);
            let last = first + rng.below(2011 - first);
            format!("/v1/analyses/temporal?first_year={first}&last_year={last}&format={format}")
        }
        _ => format!(
            "/v1/analyses/selection?profile={}&group_size={}&top={}&format={format}",
            PROFILES[rng.below(3)],
            2 + rng.below(4),
            1 + rng.below(8)
        ),
    }
}

pub fn render_miss_sequence(seed: u64, stream: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| render_miss_target(&mut rng)).collect()
}

/// Poisson arrival offsets (nanoseconds from phase start) at `rate` per
/// second over `seconds`.
pub fn poisson_schedule(seed: u64, stream: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream);
    let mut at = 0.0_f64;
    let mut offsets = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        at += -(1.0 - rng.unit()).ln() / rate;
        if at >= seconds {
            return offsets;
        }
        offsets.push((at * 1e9) as u64);
    }
}

/// The run's feeds: seeded `datagen` parametric datasets written as NVD
/// XML.
pub fn feeds(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, 0xfeed);
    (0..FEEDS_PER_RUN)
        .map(|_| {
            ParametricGenerator::new(ParametricConfig {
                vulnerability_count: FEED_ENTRIES,
                seed: rng.next_u64(),
                ..ParametricConfig::default()
            })
            .generate()
            .to_feed_xml()
            .expect("generated datasets always serialize")
            .into_bytes()
        })
        .collect()
}

/// FNV-1a, used to fingerprint generated inputs.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
