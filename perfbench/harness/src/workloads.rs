//! The timed (untraced) halves of the workloads that run inside the
//! harness. `repro` runs the `paper-repro` binary itself, from
//! `perfbench/run.py`; only its set-up is timed here.

use std::time::{Duration, Instant};

use nvd_clean::cleaner::{CleanOutcome, Cleaner};
use nvd_clean::incremental::CleanState;
use nvd_clean::names::OracleVerifier;
use nvd_model::prelude::{CveEntry, Database};
use nvd_serve::{run_workload, LinearScan, Query, QueryEngine, ServeIndex, ServeIndexState};
use nvd_synth::delta::{generate_delta_stream, DeltaStream};
use nvd_synth::{generate, SynthConfig};

use crate::common::{
    clean_options, fnv1a, guarded, same_outcome, serve_queries, serve_update, Report, FEEDS,
    FNV_OFFSET,
};
use crate::stats::{best, median, peak_rss_mb, percentile, process_cpu, reset_peak_rss};

/// One round of `repro` set-up: corpus generation at the run's config,
/// `reps` times; `setup_s` is their median.
pub fn setup_repro(scale: f64, seed: u64, reps: usize) -> Report {
    let mut report = Report::default();
    let mut times = Vec::with_capacity(reps);
    let mut sizes = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let corpus = generate(&SynthConfig::with_scale(scale, seed));
        times.push(started.elapsed().as_secs_f64());
        sizes.push(corpus.database.len());
    }
    report.check(
        "generate_is_deterministic",
        sizes.windows(2).all(|w| w[0] == w[1]),
    );
    report.metric("setup_s", median(&times), reps as u64);
    report.info.insert("cves".into(), sizes[0].to_string());
    report
}

/// The incremental service after its base snapshot: the clean state, the
/// base outcome and the warm serve index over it.
struct Warm {
    state: CleanState,
    base: CleanOutcome,
    serve: ServeIndexState,
}

fn warm_up(stream: &DeltaStream, oracle: &OracleVerifier, workload: &str, seed: u64) -> Warm {
    let base: Vec<CveEntry> = stream.base.iter().cloned().collect();
    let mut state = CleanState::new(clean_options(workload, seed));
    let base = state.apply_delta(&base, &stream.corpus.archive, oracle);
    let serve = ServeIndex::build(&base.database)
        .with_quality(&base.ledger)
        .into_state();
    Warm { state, base, serve }
}

/// One delta set-up (stream carve + base-snapshot apply + serve index
/// build), its time pushed onto `times`.
fn delta_setup(
    config: &SynthConfig,
    seed: u64,
    times: &mut Vec<f64>,
) -> (DeltaStream, OracleVerifier, Warm) {
    let started = Instant::now();
    let stream = generate_delta_stream(config, FEEDS);
    let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
    let warm = warm_up(&stream, &oracle, "delta_replay", seed);
    times.push(started.elapsed().as_secs_f64());
    (stream, oracle, warm)
}

/// `delta_replay`: carve the stream, ingest the base, then replay every
/// feed through `CleanState::apply_delta` and the warm serve update.
///
/// Each replay starts from a copy of the same warm state, so it repeats
/// identical work; replays go on until `seconds` have been measured and at
/// least `min_replays` ran. A feed's freshness and CPU time are its best
/// over the replays: on a shared host a neighbour's load only ever adds
/// time. A fresh set-up runs after every replay and is dropped once
/// checked, so that the set-ups sample the whole run as the feeds do;
/// `setup_s` is their median.
pub fn delta(scale: f64, seed: u64, seconds: f64, min_replays: usize) -> Report {
    let mut report = Report::default();
    let config = SynthConfig::with_scale(scale, seed);
    let mut setup_times = Vec::new();
    let (stream, oracle, warm) = delta_setup(&config, seed, &mut setup_times);
    let archive = &stream.corpus.archive;
    // Feeds arrive decoded; parsing the feed JSON is not part of cleaning.
    let feeds: Vec<Vec<CveEntry>> = stream.feeds.iter().map(|f| f.entries()).collect();
    let warm_digest = warm.serve.digest();

    // The reference every replay must end at, outside timing: batch
    // cleaning of the final corpus and a fresh index over it.
    let batch = Cleaner::new(clean_options("delta_replay", seed)).clean(
        &stream.final_database(),
        archive,
        &oracle,
    );
    let fresh_digest = ServeIndex::build(&batch.database)
        .with_quality(&batch.ledger)
        .digest();

    let mut fastest = vec![f64::INFINITY; feeds.len()];
    let mut least_cpu = vec![f64::INFINITY; feeds.len()];
    let mut all = Vec::new();
    let mut measured = Duration::ZERO;
    let (mut outcomes_ok, mut digests_ok, mut setups_ok) = (true, true, true);
    let mut replays = 0;
    while replays < min_replays || measured.as_secs_f64() < seconds {
        let mut state = warm.state.clone();
        let mut serve = warm.serve.clone();
        let mut last = warm.base.clone();
        for (i, entries) in feeds.iter().enumerate() {
            let cpu_before = process_cpu();
            let started = Instant::now();
            let step = guarded(|| {
                let out = state.apply_delta(entries, archive, &oracle);
                serve_update(&mut serve, &last.database, &out);
                out
            });
            let took = started.elapsed();
            let cpu = process_cpu() - cpu_before;
            report.attempted += 1;
            measured += took;
            match step {
                Some(out) => {
                    let ms = took.as_secs_f64() * 1e3;
                    fastest[i] = fastest[i].min(ms);
                    least_cpu[i] = least_cpu[i].min(cpu.as_secs_f64() * 1e3);
                    all.push(ms);
                    last = out;
                }
                None => report.failed += 1,
            }
        }
        // The set-up is deterministic: it rebuilds the warm state.
        let again = delta_setup(&config, seed, &mut setup_times).2;
        setups_ok &= same_outcome(&again.base, &warm.base) && again.serve.digest() == warm_digest;
        // Output checks, outside timing: the replay ends where batch
        // cleaning does, and its warm index equals a fresh build.
        outcomes_ok &= same_outcome(&last, &batch);
        digests_ok &= serve.digest() == fresh_digest;
        replays += 1;
    }
    report.check("final_outcome_equals_batch_clean", outcomes_ok);
    report.check("warm_serve_digest_equals_fresh_build", digests_ok);
    report.check("every_setup_rebuilds_the_warm_state", setups_ok);
    report.metric("setup_s", median(&setup_times), setup_times.len() as u64);

    // Timings are over the feeds' best times; the tail pools every sample,
    // so that ten of them lie beyond it.
    let n = all.len() as u64;
    let feed_count = fastest.len() as f64;
    report.metric("latency_p50_ms", percentile(&fastest, 0.5), n);
    if !all.is_empty() {
        report.metric("latency_tail_ms", percentile(&all, 0.9), n);
    }
    report.metric(
        "ops_per_s",
        1e3 * feed_count / fastest.iter().sum::<f64>(),
        n,
    );
    report.metric(
        "cpu_ms_per_op",
        least_cpu.iter().sum::<f64>() / feed_count,
        n,
    );
    report.info.insert("tail_percentile".into(), "p90".into());
    report.info.insert("replays".into(), replays.to_string());
    report
        .info
        .insert("base_entries".into(), stream.base.len().to_string());
    report.info.insert(
        "delta_entries".into(),
        stream.delta_entry_count().to_string(),
    );
    report
}

/// The scale-`scale` corpus cleaned with default options, as served.
pub fn served_corpus(scale: f64, seed: u64) -> CleanOutcome {
    let corpus = generate(&SynthConfig::with_scale(scale, seed));
    let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
    Cleaner::new(clean_options("serve_mixed", seed)).clean(
        &corpus.database,
        &corpus.archive,
        &oracle,
    )
}

/// Queries per generated workload; passes cycle over it.
pub const SERVE_QUERIES: usize = 1 << 17;

/// Queries checked against the linear-scan replica.
const SCAN_CHECK: usize = 20_000;

/// `serve_mixed`: one closed-loop client sending the mixed query stream
/// to the sharded index for `seconds`, each query timed on its own.
///
/// The run is split into `rounds`: each builds the index
/// `setups_per_round` times, then serves for its share of `seconds`.
/// `setup_s` is the median build.
pub fn serve(
    scale: f64,
    seed: u64,
    seconds: f64,
    rounds: usize,
    setups_per_round: usize,
) -> Report {
    let mut report = Report::default();
    let outcome = served_corpus(scale, seed);
    let db: &Database = &outcome.database;
    // Memory is the serving phase's: cleaning the corpus is not served.
    let rss_reset = reset_peak_rss();
    let queries = serve_queries(db, SERVE_QUERIES, seed);

    let mut setup_times = Vec::with_capacity(rounds * setups_per_round);
    let mut passes = Vec::new();
    let mut index = None;
    for _ in 0..rounds {
        for _ in 0..setups_per_round {
            // A rebuild replaces the index: the old one goes first.
            drop(index.take());
            let started = Instant::now();
            let built = ServeIndex::build(db).with_quality(&outcome.ledger);
            setup_times.push(started.elapsed().as_secs_f64());
            index = Some(built);
        }
        let round_seconds = seconds / rounds as f64;
        let index = index.as_ref().expect("at least one set-up");
        passes.extend(timed_passes(index, &queries, round_seconds, &mut report));
    }
    let index = index.expect("at least one set-up");
    report.metric("setup_s", median(&setup_times), setup_times.len() as u64);
    if let Some(mb) = peak_rss_mb() {
        report.metric("peak_rss_mb", mb, 1);
        let scope = if rss_reset { "serving" } else { "process" };
        report.info.insert("peak_rss_scope".into(), scope.into());
    }

    let expected = run_workload(&index, &queries).checksum;
    report.check(
        "every_pass_checksum_equals_run_workload",
        passes.iter().all(|p| p.checksum == expected),
    );
    let prefix = &queries[..SCAN_CHECK.min(queries.len())];
    let scan = LinearScan::with_ledger(db, &outcome.ledger);
    report.check(
        "index_checksum_equals_linear_scan",
        run_workload(&index, prefix) == run_workload(&scan, prefix),
    );

    // Every pass repeats identical work, and a neighbour's load on the
    // shared host only ever adds time, so each figure is the best pass's.
    let best_pass = |f: &dyn Fn(&Pass) -> f64| best(&passes.iter().map(f).collect::<Vec<_>>());
    let n = (passes.len() * queries.len()) as u64;
    let per_query = queries.len() as f64;
    report.metric("latency_p50_ms", best_pass(&|p| p.p50_ns / 1e6), n);
    report.metric("latency_tail_ms", best_pass(&|p| p.p99_ns / 1e6), n);
    report.metric(
        "ops_per_s",
        per_query / best_pass(&|p| p.wall.as_secs_f64()),
        n,
    );
    report.metric(
        "cpu_ms_per_op",
        best_pass(&|p| p.cpu.as_secs_f64() * 1e3 / per_query),
        n,
    );
    report.info.insert("tail_percentile".into(), "p99".into());
    report
        .info
        .insert("passes".into(), passes.len().to_string());
    report.info.insert("cves".into(), db.len().to_string());
    report
}

/// Passes over the query list timed per round at least.
const MIN_PASSES: usize = 3;

/// One complete pass over the query list.
struct Pass {
    p50_ns: f64,
    p99_ns: f64,
    wall: Duration,
    cpu: Duration,
    checksum: u64,
}

/// Cycles over `queries` until `seconds` have passed and at least
/// [`MIN_PASSES`] passes completed, timing every query. A pass cut short
/// by the deadline is dropped from the figures.
fn timed_passes<E: QueryEngine>(
    engine: &E,
    queries: &[Query],
    seconds: f64,
    report: &mut Report,
) -> Vec<Pass> {
    let mut passes = Vec::new();
    let mut latencies = Vec::with_capacity(queries.len());
    let started = Instant::now();
    'run: loop {
        latencies.clear();
        let mut checksum = FNV_OFFSET;
        let cpu_before = process_cpu();
        let pass_started = Instant::now();
        for (i, query) in queries.iter().enumerate() {
            let t = Instant::now();
            let result = guarded(|| engine.execute(query));
            let ns = t.elapsed().as_nanos() as f64;
            report.attempted += 1;
            match result {
                Some(r) => {
                    latencies.push(ns);
                    checksum = fnv1a(checksum, &r.checksum().to_le_bytes());
                }
                None => report.failed += 1,
            }
            if i % 4096 == 0
                && passes.len() >= MIN_PASSES
                && started.elapsed().as_secs_f64() >= seconds
            {
                break 'run;
            }
        }
        let (wall, cpu) = (pass_started.elapsed(), process_cpu() - cpu_before);
        // A pass whose every query failed has no latency to report.
        let pct = |p| {
            if latencies.is_empty() {
                f64::NAN
            } else {
                percentile(&latencies, p)
            }
        };
        passes.push(Pass {
            p50_ns: pct(0.5),
            p99_ns: pct(0.99),
            wall,
            cpu,
            checksum,
        });
    }
    passes
}
