//! Reference outputs, rendered in-process through the same public calls
//! the server makes: `Study::report` and `analysis_sections` plus
//! `renderer` for reads, and `FeedIngester` into a `Study` for uploads.

use datagen::CalibratedGenerator;
use osdiv_core::{analysis_sections, renderer, AnalysisId, Format, Params, Study};
use osdiv_registry::{FeedIngester, IngestBudget};

use crate::inputs::DATASET_SEED;
use crate::load::{Feed, UPLOAD_CHUNK};

/// The server's boot dataset, built the way `osdiv serve` builds it.
pub fn boot_study() -> Study {
    let dataset = CalibratedGenerator::new(DATASET_SEED).generate();
    Study::from_entries(dataset.entries())
}

/// Splits a request target into path, format and analysis parameters.
pub fn split_target(target: &str) -> (&str, Format, Params) {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let mut format = Format::Text;
    let mut params = Params::new();
    for pair in query.split('&').filter(|pair| !pair.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key == "format" {
            format = value.parse().expect("generated formats are valid");
        } else {
            params.insert(key, value);
        }
    }
    (path, format, params)
}

/// The body `GET target` answers on the default dataset.
pub fn render(study: &Study, target: &str) -> Vec<u8> {
    let (path, format, params) = split_target(target);
    let document = match path.strip_prefix("/v1/analyses/") {
        Some(name) => {
            let id = AnalysisId::from_name(name).expect("generated analysis ids are valid");
            let sections =
                analysis_sections(study, id, &params).expect("generated parameters are valid");
            renderer(format).document(&sections)
        }
        None => study.report(format).expect("the report renders"),
    };
    document.into_bytes()
}

/// Ingests a feed in-process the way the `PUT` route does and records
/// what the server must answer for it.
pub fn feed(bytes: Vec<u8>) -> Feed {
    let mut ingester = FeedIngester::new(IngestBudget::default());
    for chunk in bytes.chunks(UPLOAD_CHUNK) {
        ingester.push(chunk).expect("generated feeds ingest");
    }
    let outcome = ingester.finish().expect("generated feeds ingest");
    let expected_counts = format!(
        "\"entries\":{},\"skipped\":{},\"feed_bytes\":{}",
        outcome.entries, outcome.skipped, outcome.feed_bytes
    );
    let expected_report = outcome
        .into_study()
        .report(Format::Json)
        .expect("the report renders")
        .into_bytes();
    Feed {
        bytes,
        expected_counts,
        expected_report,
    }
}
