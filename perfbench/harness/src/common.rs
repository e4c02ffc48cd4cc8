//! Inputs shared by the workloads and the traced run: the corpus and its
//! cleaning options, the served query mix, and the warm serve update.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use nvd_clean::cleaner::{CleanOptions, CleanOutcome};
use nvd_clean::severity::BackportOptions;
use nvd_model::prelude::{CveId, Database};
use nvd_serve::{
    generate_workload, Query, QueryResult, ScoreAxis, ServeIndexState, WorkloadProfile,
};

/// Delta feeds the incremental stream is carved into.
pub const FEEDS: usize = 10;

/// The cleaning options a workload runs with. `paper-repro` seeds the
/// backport with the run seed; the incremental service and the served
/// corpus use the defaults.
pub fn clean_options(workload: &str, seed: u64) -> CleanOptions {
    match workload {
        "repro" => CleanOptions {
            backport: BackportOptions {
                seed,
                ..BackportOptions::default()
            },
            ..CleanOptions::default()
        },
        _ => CleanOptions::default(),
    }
}

/// The served query mix: `WorkloadProfile::mixed` traffic over `db`.
pub fn serve_queries(db: &Database, count: usize, seed: u64) -> Vec<Query> {
    generate_workload(db, &WorkloadProfile::mixed(count), seed)
}

/// The quality queries the traced run times beside the mix, which asks
/// nothing of the attached ledger: each point lookup of `mixed` asks for
/// the same entry's quality record, and each CWE-histogram poll becomes a
/// quality-histogram poll on a rotating axis.
pub fn quality_queries(mixed: &[Query]) -> Vec<Query> {
    const AXES: [ScoreAxis; 4] = [
        ScoreAxis::Completeness,
        ScoreAxis::Consistency,
        ScoreAxis::Accuracy,
        ScoreAxis::Overall,
    ];
    let mut polls = 0;
    mixed
        .iter()
        .filter_map(|query| match query {
            Query::PointLookup(id) => Some(Query::QualityLookup(*id)),
            Query::CweHistogram => {
                polls += 1;
                Some(Query::QualityHistogram {
                    axis: AXES[polls % AXES.len()],
                })
            }
            _ => None,
        })
        .collect()
}

/// Names of the query kinds, in [`kind_of`] order.
pub const KINDS: [&str; 8] = [
    "point",
    "vendor_watch",
    "product_watch",
    "window",
    "severity_hist",
    "cwe_hist",
    "quality_lookup",
    "quality_hist",
];

/// Index of a query's kind in [`KINDS`].
pub fn kind_of(query: &Query) -> usize {
    match query {
        Query::PointLookup(_) => 0,
        Query::VendorWatch(_) => 1,
        Query::ProductWatch(_) => 2,
        Query::PatchWindow { .. } => 3,
        Query::SeverityHistogram { .. } => 4,
        Query::CweHistogram => 5,
        Query::QualityLookup(_) => 6,
        Query::QualityHistogram { .. } => 7,
    }
}

/// Whether a lookup answered "no such CVE".
pub fn is_miss(result: &QueryResult<'_>) -> bool {
    matches!(
        result,
        QueryResult::Entry(None) | QueryResult::Quality(None)
    )
}

/// FNV-1a, the fold `nvd_serve::run_workload` uses, so a timed pass can be
/// compared checksum-for-checksum with the library's own run.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Ids whose cleaned entry is new or differs from `prev`: the delivered
/// entries plus older ones a changed name mapping rewrote. Both databases
/// grow with push semantics, so entries line up by position.
pub fn changed_ids(prev: &Database, next: &Database) -> Vec<CveId> {
    let (prev, next) = (prev.as_slice(), next.as_slice());
    next.iter()
        .enumerate()
        .filter(|(i, e)| prev.get(*i) != Some(*e))
        .map(|(_, e)| e.id)
        .collect()
}

/// Makes a cleaned outcome queryable on a warm serve index.
pub fn serve_update(serve: &mut ServeIndexState, prev: &Database, outcome: &CleanOutcome) {
    serve.apply_delta(&outcome.database, &changed_ids(prev, &outcome.database));
    serve.set_quality(&outcome.ledger);
}

/// Whether two cleaning outcomes agree on database, report and ledger.
pub fn same_outcome(a: &CleanOutcome, b: &CleanOutcome) -> bool {
    a.database.as_slice() == b.database.as_slice()
        && format!("{:?}", a.report) == format!("{:?}", b.report)
        && a.ledger == b.ledger
}

/// Runs `f`, turning a panic into `None` so one failing operation is
/// counted and the run goes on.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// One harness result: named metrics, the sample count behind each, the
/// operation tally and the named output checks. Printed as one JSON line.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, u64>,
    pub checks: BTreeMap<String, bool>,
    pub info: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, samples: u64) {
        self.metrics.insert(name.to_owned(), value);
        self.samples.insert(name.to_owned(), samples);
    }

    /// Records an output check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.insert(name.to_owned(), ok);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {name}");
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        join(&mut out, &self.metrics, |o, v| {
            // Non-finite values are not JSON; run.py refuses the null.
            if v.is_finite() {
                let _ = write!(o, "{v:?}");
            } else {
                o.push_str("null");
            }
        });
        out.push_str("},\"samples\":{");
        join(&mut out, &self.samples, |o, v| {
            let _ = write!(o, "{v}");
        });
        out.push_str("},\"checks\":{");
        join(&mut out, &self.checks, |o, v| {
            let _ = write!(o, "{v}");
        });
        out.push_str("},\"info\":{");
        join(&mut out, &self.info, |o, v| {
            let _ = write!(o, "\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
        });
        let _ = write!(
            out,
            "}},\"attempted\":{},\"failed\":{}}}",
            self.attempted, self.failed
        );
        out
    }
}

fn join<V>(out: &mut String, map: &BTreeMap<String, V>, value: impl Fn(&mut String, &V)) {
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        value(out, v);
    }
}
