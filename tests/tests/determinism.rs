//! Determinism: equal seeds reproduce everything bit-for-bit; different
//! seeds genuinely differ; and the blocked §4.2 name-matching engine is
//! pinned to the legacy serial sweep by a proptest oracle.

use nvd_clean::cleaner::Cleaner;
use nvd_clean::names::legacy::{find_product_candidates_legacy, find_vendor_candidates_legacy};
use nvd_clean::names::{
    find_product_candidates, find_vendor_candidates, NameMapping, OracleVerifier, Verifier,
};
use nvd_model::prelude::{CpeName, CveEntry, CveId, Database};
use nvd_synth::{generate, SynthConfig};
use proptest::prelude::*;

#[test]
fn same_seed_same_corpus_and_cleaning() {
    let run = || {
        let corpus = generate(&SynthConfig::with_scale(0.01, 777));
        let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
        let out = Cleaner::default().clean(&corpus.database, &corpus.archive, &oracle);
        let sev = out.report.severity.as_ref().unwrap();
        (
            out.database.iter().cloned().collect::<Vec<_>>(),
            out.report.disclosure.clone(),
            sev.predictions.clone(),
            sev.chosen,
            out.report.cwe.corrections.clone(),
            out.ledger.clone(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "cleaned entries differ");
    assert_eq!(a.1, b.1, "disclosure estimates differ");
    assert_eq!(a.2, b.2, "severity predictions differ");
    assert_eq!(a.3, b.3, "chosen model differs");
    assert_eq!(a.4, b.4, "CWE corrections differ");
    assert_eq!(a.5, b.5, "quality ledgers differ");
}

#[test]
fn pipeline_is_bit_identical_across_job_counts() {
    // End-to-end version of the minipar determinism contract: corpus
    // generation AND the full cleaning pipeline must agree exactly between
    // the inline path and a wide pool (the CI perf-smoke job re-checks the
    // same property across processes via the NVD_JOBS env var).
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let corpus = generate(&SynthConfig::with_scale(0.01, 777));
            let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
            let out = Cleaner::default().clean(&corpus.database, &corpus.archive, &oracle);
            (
                corpus.digest(),
                out.database.iter().cloned().collect::<Vec<_>>(),
                out.report.disclosure.clone(),
                out.report.severity.as_ref().unwrap().predictions.clone(),
                out.report.names.vendor_confirmed,
                out.ledger.clone(),
            )
        })
    };
    let serial = run(1);
    let wide = run(6);
    assert_eq!(serial.0, wide.0, "corpus digest diverged");
    assert_eq!(serial.1, wide.1, "cleaned entries diverged");
    assert_eq!(serial.2, wide.2, "disclosure estimates diverged");
    assert_eq!(serial.3, wide.3, "severity predictions diverged");
    assert_eq!(serial.4, wide.4, "name verification diverged");
    assert_eq!(serial.5, wide.5, "quality ledger diverged across jobs");
}

#[test]
fn cwe_rectification_is_bit_identical_across_job_counts() {
    // The mining half of rectify_cwe fans out over minipar; corrections,
    // statistics, and the mutated databases must agree exactly between the
    // inline path and a wide pool.
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let catalog = nvd_model::cwe::CweCatalog::builtin();
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let mut db = corpus.database.clone();
            let outcome = nvd_clean::rectify_cwe(&mut db, &catalog);
            let entries: Vec<_> = db.iter().cloned().collect();
            (outcome.corrections, outcome.stats, entries)
        })
    };
    let serial = run(1);
    let wide = run(4);
    assert_eq!(serial.0, wide.0, "CWE corrections diverged");
    assert_eq!(serial.1, wide.1, "CWE statistics diverged");
    assert_eq!(serial.2, wide.2, "rectified entries diverged");
}

#[test]
fn idf_fit_is_bit_identical_across_job_counts() {
    // The IDF fit is a minipar par_fold over fixed 128-document chunks;
    // document counts and every weight must be bit-identical at any width
    // (and identical to the serial add_document fold).
    use textkit::encoder::{Idf, PreprocessedCorpus};
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let texts: Vec<&str> = corpus
        .database
        .iter()
        .filter_map(|e| e.primary_description())
        .collect();
    let pre = PreprocessedCorpus::build(texts.iter().copied(), 0x5e17);
    // Weight probes: every unigram hash the corpus knows plus one unseen.
    let probes: Vec<u64> = (0..pre.interner().len() as u32)
        .map(|id| pre.unigram_hash(id))
        .chain([0xdead_beef])
        .collect();
    let weights_at = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let idf = Idf::fit_corpus(&pre);
            (
                idf.len(),
                probes
                    .iter()
                    .map(|&h| idf.weight(h).to_bits())
                    .collect::<Vec<u64>>(),
            )
        })
    };
    let serial = weights_at(1);
    let wide = weights_at(4);
    assert_eq!(serial.0, wide.0, "document count diverged");
    assert_eq!(serial.1, wide.1, "IDF weights diverged");

    let mut reference = Idf::new(0x5e17);
    for t in &texts {
        reference.add_document(&textkit::preprocess(t));
    }
    assert_eq!(reference.len(), serial.0);
    let ref_weights: Vec<u64> = probes
        .iter()
        .map(|&h| reference.weight(h).to_bits())
        .collect();
    assert_eq!(
        ref_weights, serial.1,
        "parallel fit diverged from serial fold"
    );
}

#[test]
fn name_candidates_are_bit_identical_across_job_counts() {
    // The §4.2 blocked engine fans pair proposal, signal annotation, and
    // the per-vendor product sweeps over minipar; both candidate lists
    // must agree exactly between the inline path and a wide pool.
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let vendor_cands = find_vendor_candidates(&corpus.database);
            let confirmed: Vec<_> = vendor_cands
                .iter()
                .filter(|c| oracle.confirm(c))
                .cloned()
                .collect();
            let mapping = NameMapping::build_vendor(&confirmed, &corpus.database);
            let product_cands = find_product_candidates(&corpus.database, &mapping);
            (vendor_cands, product_cands)
        })
    };
    let serial = run(1);
    let wide = run(4);
    assert_eq!(serial.0, wide.0, "vendor candidates diverged");
    assert_eq!(serial.1, wide.1, "product candidates diverged");
    // And the blocked engine must reproduce the legacy serial sweep.
    assert_eq!(
        serial.0,
        find_vendor_candidates_legacy(&corpus.database),
        "vendor candidates diverged from the legacy replica"
    );
}

#[test]
fn scheduled_crawl_is_bit_identical_across_job_counts() {
    // The §4.1 disclosure estimator batches every reference through the
    // webarchive crawl scheduler and fans fetch + extraction over minipar;
    // the per-CVE estimate map must agree exactly between the inline path
    // and a wide pool, and with the frozen pre-engine per-entry loops.
    use nvd_clean::disclosure::{legacy, DisclosureEstimator};
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            DisclosureEstimator::new(&corpus.archive).estimate_all(&corpus.database)
        })
    };
    let serial = run(1);
    let wide = run(4);
    assert_eq!(serial, wide, "disclosure estimates diverged across jobs");
    let estimator = DisclosureEstimator::new(&corpus.archive);
    assert_eq!(
        serial,
        legacy::estimate_all_legacy(&estimator, &corpus.database),
        "scheduled crawl diverged from the pre-engine loops"
    );
}

/// Arbitrary small databases over a deliberately tiny alphabet, so the
/// blocking heuristics collide constantly: special-character variants,
/// shared products, prefixes, near-duplicate spellings, digit guards.
/// (The vendored proptest shim has no `collection::vec`, so this is a
/// hand-rolled [`Strategy`] drawing a variable number of CPE pairs.)
#[derive(Debug)]
struct ArbSmallDb;

impl Strategy for ArbSmallDb {
    type Value = Database;

    fn new_value(&self, runner: &mut proptest::test_runner::TestRunner) -> Database {
        let n = (1usize..24).new_value(runner);
        let mut db = Database::new();
        for i in 0..n {
            let vendor = "[ab][abc_!]{0,6}".new_value(runner);
            let product = "[ab][ab0-1_]{0,4}".new_value(runner);
            let mut e = CveEntry::new(
                CveId::new(2019, (i + 1) as u32),
                "2019-01-01".parse().unwrap(),
            );
            e.affected
                .push(CpeName::application(vendor.as_str(), product.as_str()));
            db.push(e);
        }
        db
    }
}

proptest! {
    #[test]
    fn blocked_vendor_sweep_equals_legacy_pair_set(db in ArbSmallDb) {
        let legacy = find_vendor_candidates_legacy(&db);
        let serial = minipar::with_jobs(1, || find_vendor_candidates(&db));
        let wide = minipar::with_jobs(4, || find_vendor_candidates(&db));
        prop_assert_eq!(&serial, &legacy, "blocked sweep diverged from legacy");
        prop_assert_eq!(&serial, &wide, "blocked sweep diverged across jobs");
    }

    #[test]
    fn blocked_product_sweep_equals_legacy_pair_set(db in ArbSmallDb) {
        let mapping = NameMapping::default();
        let legacy = find_product_candidates_legacy(&db, &mapping);
        let serial = minipar::with_jobs(1, || find_product_candidates(&db, &mapping));
        let wide = minipar::with_jobs(4, || find_product_candidates(&db, &mapping));
        prop_assert_eq!(&serial, &legacy, "blocked sweep diverged from legacy");
        prop_assert_eq!(&serial, &wide, "blocked sweep diverged across jobs");
    }
}

#[test]
fn serve_index_build_is_bit_identical_across_job_counts() {
    // ServeIndex construction fans per-shard sorting and posting-list
    // grouping over minipar; the full structural digest (shard tables,
    // vendor/product/CWE/severity postings, date order) must agree exactly
    // between the inline path and a wide pool.
    use nvd_serve::ServeIndex;
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let digest_at =
        |jobs: usize| minipar::with_jobs(jobs, || ServeIndex::build(&corpus.database).digest());
    assert_eq!(
        digest_at(1),
        digest_at(4),
        "serve index digest diverged across jobs"
    );
}

#[test]
fn serve_answers_are_invariant_under_shard_count() {
    // Shard routing is a pure function of the CVE id, so answers — checked
    // via the order-sensitive workload checksum over mixed traffic — must
    // be bit-identical at any shard count and identical to the frozen
    // linear-scan replica.
    use nvd_serve::{generate_workload, run_workload, LinearScan, ServeIndex, WorkloadProfile};
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let workload = generate_workload(&corpus.database, &WorkloadProfile::mixed(600), 0xd15c);
    let oracle = run_workload(&LinearScan::new(&corpus.database), &workload);
    for shards in [1, 3, 16, 64] {
        let index = ServeIndex::with_shards(&corpus.database, shards);
        let summary = run_workload(&index, &workload);
        assert_eq!(
            summary, oracle,
            "serve answers diverged from the linear scan at {shards} shards"
        );
    }
}

#[test]
fn serve_workload_generator_is_seed_stable() {
    // The synthetic query generator is part of the bench contract: equal
    // seeds must reproduce the exact query sequence (at any job count —
    // generation is serial by construction), and different seeds must
    // genuinely differ.
    use nvd_serve::{generate_workload, WorkloadProfile};
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let profile = WorkloadProfile::mixed(400);
    let a = generate_workload(&corpus.database, &profile, 0xabcd);
    let b = generate_workload(&corpus.database, &profile, 0xabcd);
    let wide = minipar::with_jobs(4, || generate_workload(&corpus.database, &profile, 0xabcd));
    assert_eq!(a, b, "equal seeds must reproduce the workload");
    assert_eq!(a, wide, "workload generation must ignore the job count");
    let c = generate_workload(&corpus.database, &profile, 0xabce);
    assert_ne!(a, c, "seeds must matter to the workload");
}

#[test]
fn incremental_ingestion_is_bit_identical_across_job_counts() {
    // Delta replay through one CleanState must agree exactly between the
    // inline path and a wide pool — at every delta, on both the cleaned
    // corpus and the full report (Debug formatting covers every field,
    // floats included).
    use nvd_clean::{CleanOptions, CleanState};
    use nvd_synth::delta::generate_delta_stream;
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let stream = generate_delta_stream(&SynthConfig::with_scale(0.004, 99), 3);
            let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
            let mut state = CleanState::new(CleanOptions {
                run_backport: false,
                ..CleanOptions::default()
            });
            let base: Vec<_> = stream.base.iter().cloned().collect();
            let mut steps: Vec<Vec<CveEntry>> = vec![base];
            steps.extend(stream.feeds.iter().map(|f| f.entries()));
            let mut out = Vec::new();
            for delta in &steps {
                let step = state.apply_delta(delta, &stream.corpus.archive, &oracle);
                out.push((
                    step.database.iter().cloned().collect::<Vec<_>>(),
                    format!("{:?}", step.report),
                    step.ledger,
                ));
            }
            out
        })
    };
    assert_eq!(run(1), run(4), "delta replay diverged across job counts");
}

/// Replays the base and the first `feeds` feeds of a scale-0.004 delta
/// stream through one `CleanState` with the backport on (training only
/// `kinds`), asserting at every delta that the warm state equals
/// batch-cleaning the accumulated corpus — under the inline path and a
/// wide pool, which must also agree with each other.
fn assert_backport_incremental_equals_batch(
    kinds: &'static [nvd_clean::severity::ModelKind],
    feeds: usize,
) {
    use nvd_clean::{BackportOptions, CleanOptions, CleanState};
    use nvd_synth::delta::generate_delta_stream;
    let options = CleanOptions {
        run_backport: true,
        backport: BackportOptions {
            kinds,
            ..BackportOptions::default()
        },
        ..CleanOptions::default()
    };
    let stream = generate_delta_stream(&SynthConfig::with_scale(0.004, 99), 3);
    let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
    let archive = &stream.corpus.archive;
    let mut steps: Vec<Vec<CveEntry>> = vec![stream.base.iter().cloned().collect()];
    steps.extend(stream.feeds.iter().take(feeds).map(|f| f.entries()));
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let mut state = CleanState::new(options.clone());
            let cleaner = Cleaner::new(options.clone());
            let mut out = Vec::new();
            for (i, delta) in steps.iter().enumerate() {
                let inc = state.apply_delta(delta, archive, &oracle);
                let batch = cleaner.clean(state.database(), archive, &oracle);
                assert!(
                    inc.report.severity.is_some(),
                    "backport skipped at delta {i}"
                );
                assert_eq!(
                    inc.database.as_slice(),
                    batch.database.as_slice(),
                    "cleaned database diverged at delta {i}, jobs {jobs}"
                );
                let report = format!("{:?}", inc.report);
                assert_eq!(
                    report,
                    format!("{:?}", batch.report),
                    "report diverged at delta {i}, jobs {jobs}"
                );
                assert_eq!(
                    inc.ledger, batch.ledger,
                    "quality ledger diverged at delta {i}, jobs {jobs}"
                );
                out.push((inc.database, report, inc.ledger));
            }
            out
        })
    };
    let serial = run(1);
    let wide = run(4);
    for (i, (a, b)) in serial.iter().zip(&wide).enumerate() {
        assert_eq!(
            a.0.as_slice(),
            b.0.as_slice(),
            "database diverged across jobs at delta {i}"
        );
        assert_eq!(a.1, b.1, "report diverged across jobs at delta {i}");
        assert_eq!(a.2, b.2, "ledger diverged across jobs at delta {i}");
    }
}

#[test]
fn incremental_equals_batch_with_the_backport_on_at_any_job_count() {
    // The §4.3 backport joins the batch == incremental contract. The cheap
    // LR/SVR models keep the whole-corpus retrain per delta affordable.
    use nvd_clean::severity::ModelKind;
    assert_backport_incremental_equals_batch(&[ModelKind::Lr, ModelKind::Svr], 3);
}

#[test]
fn cnn_backport_incremental_equals_batch_at_any_job_count() {
    // The CNN runs the batched conv kernels: one tiny-scale case over the
    // base and two feeds keeps their float stream under the contract.
    use nvd_clean::severity::ModelKind;
    assert_backport_incremental_equals_batch(&[ModelKind::Cnn], 2);
}

#[test]
fn warm_serve_updates_match_full_rebuilds_at_any_shard_count() {
    // Absorbing a delta stream through ServeIndexState::apply_delta must
    // leave the index digest-identical to a fresh build of each corpus
    // prefix, at every shard count — and the warm update path itself must
    // not care about the job count.
    use nvd_serve::ServeIndex;
    use nvd_synth::delta::generate_delta_stream;
    let stream = generate_delta_stream(&SynthConfig::with_scale(0.004, 99), 3);
    let warm_digests = |jobs: usize, shards: usize| {
        minipar::with_jobs(jobs, || {
            let mut db = stream.base.clone();
            let mut state = ServeIndex::with_shards(&db, shards).into_state();
            let mut out = vec![state.digest()];
            for feed in &stream.feeds {
                let entries = feed.entries();
                let touched: Vec<CveId> = entries.iter().map(|e| e.id).collect();
                for entry in entries {
                    db.push(entry);
                }
                state.apply_delta(&db, &touched);
                out.push(state.digest());
            }
            out
        })
    };
    assert_eq!(
        warm_digests(1, 16),
        warm_digests(4, 16),
        "warm updates diverged across job counts"
    );
    for shards in [1usize, 3, 16, 64] {
        let mut db = stream.base.clone();
        let mut fresh = vec![ServeIndex::with_shards(&db, shards).digest()];
        for feed in &stream.feeds {
            for entry in feed.entries() {
                db.push(entry);
            }
            fresh.push(ServeIndex::with_shards(&db, shards).digest());
        }
        assert_eq!(
            warm_digests(1, shards),
            fresh,
            "warm updates diverged from rebuilds at {shards} shards"
        );
    }
}

#[test]
fn served_quality_answers_are_shard_invariant_at_every_delta() {
    // The quality read path rides the same contract as every other query:
    // at every delta, a warm-refreshed quality attachment must answer
    // lookups and histograms identically to the linear-scan replica over
    // the same cleaned database and ledger, at any shard count.
    use nvd_clean::{CleanOptions, CleanState};
    use nvd_serve::{LinearScan, Query, QueryEngine, ScoreAxis, ServeIndex};
    use nvd_synth::delta::generate_delta_stream;
    let stream = generate_delta_stream(&SynthConfig::with_scale(0.004, 99), 3);
    let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
    let mut state = CleanState::new(CleanOptions {
        run_backport: false,
        ..CleanOptions::default()
    });
    let base: Vec<_> = stream.base.iter().cloned().collect();
    let mut steps: Vec<Vec<CveEntry>> = vec![base];
    steps.extend(stream.feeds.iter().map(|f| f.entries()));
    for (i, delta) in steps.iter().enumerate() {
        let out = state.apply_delta(delta, &stream.corpus.archive, &oracle);
        let scan = LinearScan::with_ledger(&out.database, &out.ledger);
        let mut queries: Vec<Query> = out
            .database
            .iter()
            .map(|e| Query::QualityLookup(e.id))
            .collect();
        queries.extend(
            [
                ScoreAxis::Completeness,
                ScoreAxis::Consistency,
                ScoreAxis::Accuracy,
                ScoreAxis::Overall,
            ]
            .map(|axis| Query::QualityHistogram { axis }),
        );
        for shards in [1usize, 4, 16] {
            let index = ServeIndex::with_shards(&out.database, shards).with_quality(&out.ledger);
            for query in &queries {
                assert_eq!(
                    index.execute(query),
                    scan.execute(query),
                    "quality answer diverged at delta {i}, {shards} shards"
                );
            }
        }
    }
}

/// Random delta sequences over [`ArbSmallDb`]-style entries: every entry
/// is assigned an arrival step, and some are redelivered later with a
/// rewritten CPE — covering inserts, modifications, same-id repeats
/// within one delta, and empty deltas.
#[derive(Debug)]
struct ArbDeltaSteps;

impl Strategy for ArbDeltaSteps {
    type Value = Vec<Vec<CveEntry>>;

    fn new_value(&self, runner: &mut proptest::test_runner::TestRunner) -> Self::Value {
        let n = (4usize..16).new_value(runner);
        let step_count = (2usize..5).new_value(runner);
        let mut steps: Vec<Vec<CveEntry>> = vec![Vec::new(); step_count];
        let mut all: Vec<CveEntry> = Vec::new();
        for i in 0..n {
            let vendor = "[ab][abc_!]{0,6}".new_value(runner);
            let product = "[ab][ab0-1_]{0,4}".new_value(runner);
            let mut e = CveEntry::new(
                CveId::new(2019, (i + 1) as u32),
                "2019-01-01".parse().unwrap(),
            );
            e.affected
                .push(CpeName::application(vendor.as_str(), product.as_str()));
            steps[(0..step_count).new_value(runner)].push(e.clone());
            all.push(e);
        }
        for e in &all {
            if (0usize..3).new_value(runner) == 0 {
                let vendor = "[ab][abc_!]{0,6}".new_value(runner);
                let product = "[ab][ab0-1_]{0,4}".new_value(runner);
                let mut m = e.clone();
                m.affected = vec![CpeName::application(vendor.as_str(), product.as_str())];
                steps[(0..step_count).new_value(runner)].push(m);
            }
        }
        steps
    }
}

proptest! {
    #[test]
    fn incremental_cleaning_equals_batch_on_random_delta_sequences(steps in ArbDeltaSteps) {
        // The tentpole contract, property-sampled: replaying any delta
        // sequence through one CleanState equals batch-cleaning the
        // accumulated corpus from scratch — after every delta.
        use nvd_clean::{CleanOptions, CleanState};
        let archive = webarchive::WebArchive::new();
        let oracle = OracleVerifier::new(std::collections::BTreeMap::new());
        let options = CleanOptions {
            run_backport: false,
            ..CleanOptions::default()
        };
        let mut state = CleanState::new(options.clone());
        let cleaner = Cleaner::new(options);
        for (i, delta) in steps.iter().enumerate() {
            let inc = state.apply_delta(delta, &archive, &oracle);
            let batch = cleaner.clean(state.database(), &archive, &oracle);
            prop_assert_eq!(
                inc.database.as_slice(),
                batch.database.as_slice(),
                "cleaned database diverged at delta {}",
                i
            );
            prop_assert_eq!(
                format!("{:?}", inc.report),
                format!("{:?}", batch.report),
                "report diverged at delta {}",
                i
            );
            prop_assert_eq!(
                &inc.ledger,
                &batch.ledger,
                "quality ledger diverged at delta {}",
                i
            );
        }
    }
}

#[test]
fn different_seed_different_corpus() {
    let a = generate(&SynthConfig::with_scale(0.005, 1));
    let b = generate(&SynthConfig::with_scale(0.005, 2));
    let ea: Vec<_> = a.database.iter().collect();
    let eb: Vec<_> = b.database.iter().collect();
    assert_ne!(ea, eb, "seeds must matter");
}

#[test]
fn scale_controls_size_monotonically() {
    let small = generate(&SynthConfig::with_scale(0.005, 3));
    let large = generate(&SynthConfig::with_scale(0.02, 3));
    assert!(large.database.len() > small.database.len());
    assert!(large.archive.len() > small.archive.len());
    assert!(
        large.database.vendor_set().len() > small.database.vendor_set().len(),
        "vendor universe must scale"
    );
}
