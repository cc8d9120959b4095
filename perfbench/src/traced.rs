//! The traced run: the workload's generated inputs replayed in-process
//! through the public call chain, one span around each call into a layer.
//!
//! Spans live in memory and are written at exit as Chrome trace-event JSON
//! (the format `/v1/debug/spans` emits, loadable in Perfetto). A layer's
//! self time is its span minus the time its child spans cover. The spans
//! are recorded by this file, around the calls; nothing inside the
//! program is instrumented for them.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use datagen::CalibratedGenerator;
use osdiv_core::{analysis_sections, renderer, AnalysisId, CountIndex, Format, Study};
use osdiv_registry::persist::Durability;
use osdiv_registry::{
    DatasetSource, FeedIngester, IngestBudget, RegistryOptions, StudyRegistry, TenantStore,
};
use osdiv_serve::{RequestParser, Router, RouterOptions};

use crate::inputs::{ANALYSES, DATASET_SEED, FORMATS};
use crate::load::UPLOAD_CHUNK;
use crate::reference::split_target;

struct Span {
    name: &'static str,
    trace: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder; disabled, it only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    /// Starts a new trace id: the spans of one request share it.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn span<R>(&mut self, name: &'static str, call: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return call(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let result = call(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Calls, total duration and total self time (ns) per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let entry = totals.entry(span.name).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += span.end_ns - span.start_ns;
            entry.2 += own;
        }
        totals
    }

    /// Chrome trace-event JSON (complete `X` events, microseconds).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.trace,
                index,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("]}\n");
        out
    }
}

fn sections_span(id: AnalysisId) -> &'static str {
    match id {
        AnalysisId::Validity => "study.sections.validity",
        AnalysisId::Classes => "study.sections.classes",
        AnalysisId::Pairwise => "study.sections.pairwise",
        AnalysisId::Split => "study.sections.split",
        AnalysisId::Releases => "study.sections.releases",
        AnalysisId::Temporal => "study.sections.temporal",
        AnalysisId::KWay => "study.sections.kway",
        AnalysisId::Selection => "study.sections.selection",
    }
}

fn document_span(format: Format) -> &'static str {
    match format {
        Format::Text => "render.document.text",
        Format::Csv => "render.document.csv",
        Format::Json => "render.document.json",
    }
}

/// What the replay measured besides its spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Read responses that were not 200.
    pub failed: u64,
    /// 200 responses whose body differs from the reference.
    pub mismatched: u64,
    pub reads: u64,
    pub feeds: u64,
    /// Sums over feeds of `IngestOutcome.stages`, µs.
    pub carve_us: u64,
    pub parse_us: u64,
    pub insert_us: u64,
    pub scan_work: u64,
    pub feed_bytes: u64,
    /// Journal plus snapshot bytes written for the feeds.
    pub persisted_bytes: u64,
}

/// Most read requests replayed per run: enough for stable means while
/// keeping the traced run short.
pub const MAX_REPLAYED_READS: usize = 4000;

/// Replays boot, the reads and the feeds. `expected(target)` gives the
/// reference body for targets that have one.
pub fn replay<'a>(
    tracer: &mut Tracer,
    reads: &[String],
    expected: &dyn Fn(&str) -> Option<&'a [u8]>,
    feeds: &[Vec<u8>],
    dir: &Path,
    tag: &str,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    tracer.next_trace();
    let study = tracer.span("boot", |t| {
        let dataset = t.span("datagen.generate", |_| {
            CalibratedGenerator::new(DATASET_SEED).generate()
        });
        let study = t.span("study.from_entries", |_| {
            Study::from_entries(dataset.entries())
        });
        t.span("index.build.boot", |_| black_box(CountIndex::build(&study)));
        t.span("study.run_all", |_| {
            study.run_all().expect("boot analyses run")
        });
        Arc::new(study)
    });
    let registry = Arc::new(StudyRegistry::with_default(
        study,
        DATASET_SEED,
        RegistryOptions::default(),
    ));
    let router = Router::new(
        Arc::clone(&registry),
        RouterOptions {
            seed: DATASET_SEED,
            cache_capacity: 128,
            enable_dataset_delete: true,
            ..RouterOptions::default()
        },
    );

    let mut sink = Vec::with_capacity(64 * 1024);
    for target in reads {
        let reference = expected(target);
        let raw = format!("GET {target} HTTP/1.1\r\nHost: osdiv\r\n\r\n");
        tracer.next_trace();
        let ok = tracer.span("request", |t| {
            let request = t.span("http.parse", |_| {
                RequestParser::new()
                    .feed(raw.as_bytes())
                    .ok()
                    .flatten()
                    .expect("generated requests parse")
            });
            let response = t.span("router.handle", |_| router.handle(&request));
            sink.clear();
            t.span("http.write", |_| {
                response
                    .write_to(&mut sink, true, false)
                    .expect("writes to memory succeed")
            });
            match (response.status(), reference) {
                (200, Some(body)) => Some(response.body() == body),
                (200, None) => Some(true),
                _ => None,
            }
        });
        counts.reads += 1;
        match ok {
            Some(true) => {}
            Some(false) => counts.mismatched += 1,
            None => counts.failed += 1,
        }
    }

    // The layers under the router, once per distinct read target; an
    // analysis the workload never asks for is timed on its defaults so
    // every analysis has a figure.
    let mut seen = HashSet::new();
    let mut targets: Vec<String> = reads.iter().filter(|t| seen.insert(*t)).cloned().collect();
    let asked: HashSet<&str> = targets
        .iter()
        .filter_map(|t| t.strip_prefix("/v1/analyses/"))
        .map(|rest| rest.split('?').next().unwrap_or(rest))
        .collect();
    let missing: Vec<String> = ANALYSES
        .iter()
        .filter(|name| !asked.contains(**name))
        .flat_map(|name| FORMATS.map(|f| format!("/v1/analyses/{name}?format={f}")))
        .collect();
    targets.extend(missing);
    for target in &targets {
        let (path, format, params) = split_target(target);
        tracer.next_trace();
        tracer.span("layers", |t| {
            let (study, _) = t.span("registry.get_tagged", |_| {
                registry
                    .get_tagged("default")
                    .expect("the default dataset resolves")
            });
            let sections = match path.strip_prefix("/v1/analyses/") {
                Some(name) => {
                    let id = AnalysisId::from_name(name).expect("generated ids are valid");
                    t.span(sections_span(id), |_| {
                        analysis_sections(&study, id, &params)
                    })
                }
                None => t.span("study.report_sections", |_| study.report_sections()),
            }
            .expect("generated parameters are valid");
            t.span(document_span(format), |_| {
                black_box(renderer(format).document(&sections))
            });
        });
    }

    let store = TenantStore::open_durable(dir, Durability::Rename).expect("the work dir opens");
    let budget = IngestBudget {
        max_bytes: osdiv_registry::registry::DEFAULT_MAX_TOTAL_BYTES,
        ..IngestBudget::default()
    };
    for (k, feed) in feeds.iter().enumerate() {
        let name = format!("{tag}-{k}");
        tracer.next_trace();
        tracer.span("ingest.feed", |t| {
            let mut journal = store.journal(&name).expect("journal opens");
            let mut ingester = FeedIngester::new(budget.clone());
            for chunk in feed.chunks(UPLOAD_CHUNK) {
                t.span("persist.journal_append", |_| {
                    journal.append(chunk).expect("journal appends")
                });
                t.span("ingest.push", |_| {
                    ingester.push(chunk).expect("feed ingests")
                });
            }
            counts.scan_work += ingester.scan_work();
            counts.feed_bytes += ingester.feed_bytes() as u64;
            let outcome = t.span("ingest.finish", |_| {
                ingester.finish().expect("feed ingests")
            });
            counts.carve_us += outcome.stages.carve_us;
            counts.parse_us += outcome.stages.parse_us;
            counts.insert_us += outcome.stages.insert_us;
            t.span("index.build.feed", |_| {
                black_box(CountIndex::build(&outcome.dataset))
            });
            let source = DatasetSource::Ingested {
                entries: outcome.entries,
                skipped: outcome.skipped,
                feed_bytes: outcome.feed_bytes,
            };
            let study = Arc::new(outcome.into_study());
            t.span("persist.snapshot_write", |_| {
                store.save(&name, &study, &source).expect("snapshot writes")
            });
            let file_len = |path: &Path| std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            counts.persisted_bytes +=
                file_len(journal.path()) + file_len(&store.snapshot_path(&name));
            journal.finish().expect("journal retires");
            t.span("persist.snapshot_load", |_| {
                black_box(store.load(&name).expect("snapshot loads"))
            });
            t.span("registry.insert", |_| {
                registry
                    .insert(&name, study, source)
                    .expect("dataset registers")
            });
            t.span("registry.get_tagged", |_| {
                black_box(registry.get_tagged(&name).expect("dataset resolves"))
            });
            t.span("registry.remove", |_| {
                registry.remove(&name).expect("dataset removes")
            });
            store.remove(&name).expect("snapshot removes");
        });
        counts.feeds += 1;
    }
    counts
}
