//! The traced run: times calls into each layer's public functions from
//! outside the program, on the inputs the pipeline gives that layer, and
//! checks every call's output against the matching field of the
//! pipeline's own outcome.
//!
//! Every traced run measures every layer on its workload's corpus; which
//! layers lie on a workload's end-to-end path is recorded in
//! `perfbench/README.md`.

use std::io::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use mlkit::data::stratified_split_indices;
use nvd_clean::cleaner::{CleanOptions, CleanOutcome, CleanReport, Cleaner, NameReport};
use nvd_clean::cwe_fix::rectify_cwe;
use nvd_clean::disclosure::DisclosureEstimator;
use nvd_clean::incremental::{CleanState, QuarantineLedger};
use nvd_clean::names::{
    find_product_candidates, find_vendor_candidates, NameMapping, OracleVerifier, PatternBreakdown,
    ProductCandidate, ProductHeuristic, Verifier,
};
use nvd_clean::quality::QualityLedger;
use nvd_clean::severity::{backport_v3, BackportOptions, ModelKind};
use nvd_clean::typeclf::{train_type_classifier, TypeClassifierOptions};
use nvd_model::cwe::{CweCatalog, CweId};
use nvd_model::prelude::{CveEntry, Database};
use nvd_serve::{run_workload, LinearScan, Query, QueryEngine, ServeIndex};
use nvd_synth::delta::generate_delta_stream;
use nvd_synth::{generate, SynthConfig};

use crate::common::{
    clean_options, fnv1a, is_miss, kind_of, quality_queries, same_outcome, serve_queries,
    serve_update, Report, FEEDS, FNV_OFFSET, KINDS,
};
use crate::stats::{median, percentile};

/// One timed call: name, causing span, and start/end offsets from the
/// start of the run in nanoseconds.
#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// Spans kept in memory and written out once the run ends.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Times `f` as a span, child of the innermost open span. Returns the
    /// result and the span's duration in seconds.
    fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos();
        (result, self.secs(id))
    }

    fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// A span's duration minus the part of it its children cover.
    fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.secs(c))
            .sum();
        self.secs(id) - children
    }

    fn last(&self, name: &str) -> usize {
        self.spans
            .iter()
            .rposition(|s| s.name == name)
            .expect("span recorded")
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Settings of one traced run.
#[derive(Debug)]
pub struct TraceConfig<'a> {
    pub workload: &'a str,
    pub scale: f64,
    pub seed: u64,
    /// Feeds replayed through the incremental layer (all of them on the
    /// delta stream's own workload, a few elsewhere).
    pub replay_feeds: usize,
    /// Mixed queries timed one by one on the serve layer.
    pub queries: usize,
    /// The `paper-repro` binary whose wall time the analysis residual is
    /// taken from.
    pub paper_repro: &'a Path,
    /// Where the spans are written once the run ends.
    pub spans_out: &'a Path,
}

/// The batch pipeline's product-pair acceptance rule (`nvd_clean` keeps it
/// crate-private): token and abbreviation pairs always, edit-distance
/// pairs only between names of five or more bytes.
fn confirm_product(c: &ProductCandidate) -> bool {
    match c.heuristic {
        ProductHeuristic::TokenEquivalent | ProductHeuristic::Abbreviation => true,
        ProductHeuristic::EditDistance => c.a.as_str().len() >= 5 && c.b.as_str().len() >= 5,
    }
}

pub fn trace(cfg: &TraceConfig<'_>) -> Report {
    let mut report = Report::default();
    let mut t = Tracer::new();
    let options = clean_options(cfg.workload, cfg.seed);
    let config = SynthConfig::with_scale(cfg.scale, cfg.seed);

    let (corpus, generate_s) = t.span("synth.generate", |_| generate(&config));
    let (db, archive) = (&corpus.database, &corpus.archive);
    let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
    let cleaner = Cleaner::new(options.clone());

    // --- cleaner: untraced whole calls, then the traced replica ---------
    let mut untraced = Vec::new();
    let mut outcome = None;
    for _ in 0..3 {
        let started = Instant::now();
        outcome = Some(cleaner.clean(db, archive, &oracle));
        untraced.push(started.elapsed().as_secs_f64());
    }
    let outcome = outcome.expect("cleaned");
    let clean_total = median(&untraced);
    report.metric("clean.total_s", clean_total, untraced.len() as u64);

    let started = Instant::now();
    let serial = minipar::with_jobs(1, || cleaner.clean(db, archive, &oracle));
    let serial_s = started.elapsed().as_secs_f64();
    report.check(
        "clean_jobs_1_equals_jobs_n",
        same_outcome(&serial, &outcome),
    );
    report.metric("minipar.clean_speedup", serial_s / clean_total, 1);
    drop(serial);

    let (replica, replica_s) = t.span("clean", |t| {
        clean_replica(t, db, archive, &oracle, &options)
    });
    let clean_id = t.last("clean");
    report.metric("clean.self_s", t.self_secs(clean_id), 1);
    report.metric("trace.overhead_s", replica_s - clean_total, 1);
    let s = |t: &Tracer, name: &str| t.secs(t.last(name));
    report.metric("disclosure.estimate_s", s(&t, "disclosure.estimate"), 1);
    report.metric("names.vendor_sweep_s", s(&t, "names.vendor_sweep"), 1);
    report.metric("names.product_sweep_s", s(&t, "names.product_sweep"), 1);
    report.metric("names.apply_s", s(&t, "names.apply"), 1);
    report.metric("cwe.rectify_s", s(&t, "cwe.rectify"), 1);
    report.metric("severity.backport_s", s(&t, "severity.backport"), 1);
    report.metric("quality.assemble_s", s(&t, "quality.assemble"), 1);

    let r = &outcome.report;
    report.check(
        "disclosure_equals_pipeline",
        replica.report.disclosure == r.disclosure,
    );
    report.check(
        "names_equal_pipeline",
        format!("{:?}", replica.report.names) == format!("{:?}", r.names),
    );
    report.check(
        "cwe_equals_pipeline",
        format!("{:?}", replica.report.cwe) == format!("{:?}", r.cwe),
    );
    report.check(
        "backport_equals_pipeline",
        format!("{:?}", replica.report.severity) == format!("{:?}", r.severity),
    );
    report.check("ledger_equals_pipeline", replica.ledger == outcome.ledger);
    report.check(
        "database_equals_pipeline",
        replica.database.as_slice() == outcome.database.as_slice(),
    );
    report.metric("disclosure.estimates", r.disclosure.len() as f64, 1);
    let names = &r.names;
    report.metric("names.vendor_candidates", names.vendor_candidates as f64, 1);
    report.metric(
        "names.vendor_confirm_ratio",
        names.vendor_confirmed as f64 / names.vendor_candidates.max(1) as f64,
        1,
    );
    report.metric(
        "names.product_candidates",
        names.product_candidates as f64,
        1,
    );
    report.metric("cwe.corrected", r.cwe.stats.total_corrected() as f64, 1);
    report.metric("quality.issues", outcome.ledger.total_issues() as f64, 1);
    let severity = r.severity.as_ref().expect("backport enabled");
    report.metric(
        "severity.ground_truth",
        severity.ground_truth_size as f64,
        1,
    );
    report.metric("severity.v2_only", severity.v2_only_size as f64, 1);

    // --- severity: each model trained alone on the backport's input -----
    const ALONE: [(&str, &[ModelKind]); 4] = [
        ("lr", &[ModelKind::Lr]),
        ("svr", &[ModelKind::Svr]),
        ("cnn", &[ModelKind::Cnn]),
        ("dnn", &[ModelKind::Dnn]),
    ];
    for (label, kinds) in ALONE {
        let opts = BackportOptions {
            kinds,
            ..options.backport
        };
        let (alone, secs) = t.span(&format!("severity.train_{label}"), |_| {
            backport_v3(&replica.database, &opts)
        });
        report.metric(&format!("severity.train_{label}_s"), secs, 1);
        report.check(
            &format!("train_{label}_alone_equals_pipeline_report"),
            format!("{:?}", alone.reports.get(&kinds[0]))
                == format!("{:?}", severity.reports.get(&kinds[0])),
        );
    }

    // --- typeclf: train, then classify the held-out split ---------------
    let typeclf = trace_typeclf(&mut t, &outcome.database, &mut report);

    // --- analysis: what paper-repro spends outside the traced layers ----
    let started = Instant::now();
    let run = Command::new(cfg.paper_repro)
        .args([
            "--scale",
            &cfg.scale.to_string(),
            "--seed",
            &cfg.seed.to_string(),
        ])
        .stderr(std::process::Stdio::null())
        .output();
    let wall = started.elapsed().as_secs_f64();
    report.check(
        "paper_repro_exits_0",
        run.as_ref().is_ok_and(|o| o.status.success()),
    );
    if let (Ok(out), Some((train, test))) = (&run, typeclf) {
        let stdout = String::from_utf8_lossy(&out.stdout);
        report.check(
            "paper_repro_typeclf_sizes_equal_traced_call",
            stdout.contains(&format!("train/test: {train}/{test}\n")),
        );
    }
    let train_s = s(&t, "typeclf.train");
    report.metric(
        "analysis.residual_s",
        wall - generate_s - clean_total - train_s,
        1,
    );

    // --- serve: build, then the query mix kind by kind -------------------
    trace_serve(&mut t, &outcome, cfg, &mut report);

    // --- incremental: base snapshot, then the replayed feeds -------------
    trace_incremental(&mut t, cfg, &options, &mut report);

    report.check("spans_written", t.write_jsonl(cfg.spans_out).is_ok());
    report
        .info
        .insert("spans".into(), t.spans.len().to_string());
    report
}

/// `Cleaner::clean`, stage by stage, with a span around each layer call.
fn clean_replica(
    t: &mut Tracer,
    db: &Database,
    archive: &webarchive::WebArchive,
    verifier: &OracleVerifier,
    options: &CleanOptions,
) -> CleanOutcome {
    let mut cleaned = db.clone();
    let (disclosure, _) = t.span("disclosure.estimate", |_| {
        DisclosureEstimator::new(archive)
            .with_crawlers(options.crawlers.clone())
            .with_rule(options.aggregation)
            .estimate_all(&cleaned)
    });

    let (vendor_candidates, _) = t.span("names.vendor_sweep", |_| find_vendor_candidates(&cleaned));
    let flags: Vec<bool> = minipar::par_map(&vendor_candidates, |c| verifier.confirm(c));
    let confirmed: Vec<_> = vendor_candidates
        .iter()
        .zip(&flags)
        .filter(|(_, &ok)| ok)
        .map(|(c, _)| c.clone())
        .collect();
    let pattern_breakdown = PatternBreakdown::tabulate(&vendor_candidates, &flags);
    let mut mapping = NameMapping::build_vendor(&confirmed, &cleaned);
    let (product_candidates, _) = t.span("names.product_sweep", |_| {
        find_product_candidates(&cleaned, &mapping)
    });
    let product_confirmed: Vec<_> = product_candidates
        .iter()
        .filter(|c| confirm_product(c))
        .cloned()
        .collect();
    mapping.extend_products(&product_confirmed, &cleaned);
    let vendors_before = cleaned.vendor_set().len();
    let products_before = cleaned.product_set().len();
    let (apply_stats, _) = t.span("names.apply", |_| mapping.apply(&mut cleaned));
    let names = NameReport {
        vendors_before,
        vendors_after: cleaned.vendor_set().len(),
        products_before,
        products_after: cleaned.product_set().len(),
        vendor_candidates: vendor_candidates.len(),
        vendor_confirmed: confirmed.len(),
        product_candidates: product_candidates.len(),
        product_confirmed: product_confirmed.len(),
        pattern_breakdown,
        mapping,
        apply_stats,
    };

    let (cwe, _) = t.span("cwe.rectify", |_| {
        rectify_cwe(&mut cleaned, &CweCatalog::builtin())
    });
    let (severity, _) = t.span("severity.backport", |_| {
        backport_v3(&cleaned, &options.backport)
    });
    let report = CleanReport {
        disclosure,
        names,
        severity: Some(severity),
        cwe,
    };
    let (ledger, _) = t.span("quality.assemble", |_| {
        QualityLedger::assemble(&cleaned, &report, &QuarantineLedger::default())
    });
    CleanOutcome {
        database: cleaned,
        report,
        ledger,
    }
}

/// Trains the §4.4 classifier as `paper-repro` does, then classifies its
/// held-out split with `classify_batch`; the recomputed accuracy must equal
/// the training report's. Returns the (train, test) sizes.
fn trace_typeclf(t: &mut Tracer, db: &Database, report: &mut Report) -> Option<(usize, usize)> {
    let opts = TypeClassifierOptions::default();
    let (trained, train_s) = t.span("typeclf.train", |_| train_type_classifier(db, &opts));
    report.metric("typeclf.train_s", train_s, 1);
    let Some((clf, rep)) = trained else {
        report.check("typeclf_trained", false);
        return None;
    };
    report.metric("typeclf.train_size", rep.train_size as f64, 1);
    report.metric("typeclf.test_size", rep.test_size as f64, 1);

    // The held-out split, rebuilt the way `train_type_classifier` draws it.
    let mut typed: Vec<(&CveEntry, CweId)> = db
        .iter()
        .filter_map(|e| e.effective_cwe().specific().map(|id| (e, id)))
        .collect();
    typed.truncate(opts.max_samples);
    let mut classes: Vec<CweId> = Vec::new();
    let labels: Vec<usize> = typed
        .iter()
        .map(|(_, id)| {
            classes.iter().position(|c| c == id).unwrap_or_else(|| {
                classes.push(*id);
                classes.len() - 1
            })
        })
        .collect();
    let (_, test_idx) = stratified_split_indices(&labels, opts.test_fraction, opts.seed);
    let texts: Vec<&str> = test_idx
        .iter()
        .map(|&i| typed[i].0.primary_description().unwrap_or_default())
        .collect();
    let (predicted, classify_s) = t.span("typeclf.classify", |_| clf.classify_batch(&texts));
    report.metric("typeclf.classify_s", classify_s, 1);
    let correct = test_idx
        .iter()
        .zip(&predicted)
        .filter(|(&i, &p)| p == typed[i].1)
        .count();
    let accuracy = if test_idx.is_empty() {
        0.0
    } else {
        correct as f64 / test_idx.len() as f64
    };
    report.check(
        "typeclf_classify_accuracy_equals_report",
        accuracy == rep.accuracy,
    );
    Some((rep.train_size, rep.test_size))
}

/// Builds the served index over the cleaned corpus and times the query
/// mix one query at a time, per kind, then a batch of quality queries
/// drawn from the same mix.
fn trace_serve(t: &mut Tracer, outcome: &CleanOutcome, cfg: &TraceConfig<'_>, report: &mut Report) {
    let db = &outcome.database;
    let (index, build_s) = t.span("serve.build", |_| {
        ServeIndex::build(db).with_quality(&outcome.ledger)
    });
    report.metric("serve.build_s", build_s, 1);
    let mixed = serve_queries(db, cfg.queries, cfg.seed);
    let quality = quality_queries(&mixed);
    let scan = LinearScan::with_ledger(db, &outcome.ledger);
    let mut latencies: Vec<Vec<f64>> = KINDS.iter().map(|_| Vec::new()).collect();
    let (mut items, mut lookups, mut misses) = (0usize, 0usize, 0usize);
    for (name, queries) in [
        ("serve.queries", &mixed),
        ("serve.quality_queries", &quality),
    ] {
        let mut checksum = FNV_OFFSET;
        t.span(name, |_| {
            for query in queries {
                let started = Instant::now();
                let result = index.execute(query);
                let ns = started.elapsed().as_nanos() as f64;
                latencies[kind_of(query)].push(ns);
                if name == "serve.queries" {
                    items += result.len();
                    if matches!(query, Query::PointLookup(_)) {
                        lookups += 1;
                        misses += usize::from(is_miss(&result));
                    }
                }
                checksum = fnv1a(checksum, &result.checksum().to_le_bytes());
            }
        });
        report.check(
            &format!("{name}_checksum_equals_run_workload"),
            checksum == run_workload(&index, queries).checksum,
        );
        let prefix = &queries[..queries.len().min(5_000)];
        report.check(
            &format!("{name}_index_equals_linear_scan"),
            run_workload(&index, prefix) == run_workload(&scan, prefix),
        );
    }
    for (kind, ns) in KINDS.iter().zip(&latencies) {
        if ns.is_empty() {
            continue;
        }
        let n = ns.len() as u64;
        report.metric(&format!("serve.{kind}_p50_ns"), percentile(ns, 0.5), n);
        report.metric(&format!("serve.{kind}_p99_ns"), percentile(ns, 0.99), n);
    }
    let n = mixed.len().max(1) as f64;
    report.metric(
        "serve.items_per_query",
        items as f64 / n,
        mixed.len() as u64,
    );
    report.metric(
        "serve.miss_ratio",
        misses as f64 / lookups.max(1) as f64,
        lookups as u64,
    );
}

/// Ingests the delta stream's base snapshot, then replays feeds through
/// `CleanState::apply_delta` and the warm serve update. After each feed the
/// backport and the ledger assembly are re-timed on the outcome's own
/// inputs and checked against it.
fn trace_incremental(
    t: &mut Tracer,
    cfg: &TraceConfig<'_>,
    options: &CleanOptions,
    report: &mut Report,
) {
    let stream = generate_delta_stream(&SynthConfig::with_scale(cfg.scale, cfg.seed), FEEDS);
    let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
    let archive = &stream.corpus.archive;
    let base: Vec<CveEntry> = stream.base.iter().cloned().collect();
    let mut state = CleanState::new(options.clone());
    let (mut last, base_s) = t.span("incremental.base_apply", |_| {
        state.apply_delta(&base, archive, &oracle)
    });
    report.metric("incremental.base_apply_s", base_s, 1);
    let mut serve = ServeIndex::build(&last.database)
        .with_quality(&last.ledger)
        .into_state();

    let (mut apply, mut backport, mut assemble, mut own, mut update) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut entries_total = 0usize;
    let mut rechecks_ok = true;
    let feeds = cfg.replay_feeds.min(stream.feeds.len());
    for feed in &stream.feeds[..feeds] {
        let entries = feed.entries();
        entries_total += entries.len();
        let (out, apply_s) = t.span("incremental.apply", |_| {
            state.apply_delta(&entries, archive, &oracle)
        });
        let (_, update_s) = t.span("serve.update", |_| {
            serve_update(&mut serve, &last.database, &out)
        });
        let (sev, backport_s) = t.span("incremental.backport", |_| {
            backport_v3(&out.database, &options.backport)
        });
        let (ledger, assemble_s) = t.span("incremental.assemble", |_| {
            QualityLedger::assemble(&out.database, &out.report, state.quarantine())
        });
        rechecks_ok &= format!("{:?}", Some(sev)) == format!("{:?}", out.report.severity)
            && ledger == out.ledger;
        apply.push(apply_s * 1e3);
        backport.push(backport_s * 1e3);
        assemble.push(assemble_s * 1e3);
        own.push((apply_s - backport_s - assemble_s) * 1e3);
        update.push(update_s * 1e3);
        last = out;
    }
    report.check("incremental_retimed_calls_equal_outcome", rechecks_ok);
    let fresh = ServeIndex::build(&last.database).with_quality(&last.ledger);
    report.check(
        "incremental_warm_serve_equals_fresh_build",
        serve.digest() == fresh.digest(),
    );
    report
        .info
        .insert("incremental_feeds".into(), feeds.to_string());
    let n = apply.len() as u64;
    report.metric("incremental.apply_p50_ms", median(&apply), n);
    report.metric("incremental.backport_p50_ms", median(&backport), n);
    report.metric("incremental.assemble_p50_ms", median(&assemble), n);
    report.metric("incremental.self_p50_ms", median(&own), n);
    report.metric("serve.update_p50_ms", median(&update), n);
    report.metric(
        "incremental.entries_per_delta",
        entries_total as f64 / feeds.max(1) as f64,
        n,
    );
}
