//! Benchmark harness for the nvd-clean workspace. `perfbench/run.py`
//! builds and drives it; each subcommand prints one JSON line:
//!
//! ```text
//! perfbench-harness setup-repro --scale F --seed N --reps R
//! perfbench-harness delta       --scale F --seed N --seconds S
//! perfbench-harness serve       --scale F --seed N --seconds S
//! perfbench-harness trace       --workload W --scale F --seed N
//!                               --paper-repro PATH --spans-out PATH
//! ```

mod common;
mod layers;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;

/// Index set-ups timed per round; `setup_s` is the median of all rounds.
/// Each index build takes ~10 ms, and a round runs before each of the
/// [`SERVE_ROUNDS`] stretches of serving.
const SERVE_SETUPS_PER_ROUND: usize = 8;
const SERVE_ROUNDS: usize = 3;
/// Whole delta replays per run at least (~1.3 s each): 10 × 10 feeds puts
/// ten freshness samples beyond the p90.
const MIN_REPLAYS: usize = 10;
/// Feeds the traced run replays on the scale-0.05 workloads, where each
/// delta re-backports ~5k CVEs.
const TRACE_FEEDS_LARGE: usize = 3;
/// Mixed queries the traced run times on the serve layer: enough that the
/// rarest kinds (the histogram polls) have ten samples beyond p99.
const TRACE_QUERIES: usize = 400_000;

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            fail(&format!("unexpected argument {flag:?}"));
        };
        let value = args
            .next()
            .unwrap_or_else(|| fail(&format!("missing value for {flag}")));
        flags.insert(name.to_owned(), value);
    }
    let get = |name: &str| -> &str {
        flags
            .get(name)
            .map(String::as_str)
            .unwrap_or_else(|| fail(&format!("missing --{name}")))
    };
    let num = |name: &str| -> f64 {
        get(name)
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{name} must be a number")))
    };
    let scale = num("scale");
    let seed = num("seed") as u64;

    let report = match command.as_str() {
        "setup-repro" => workloads::setup_repro(scale, seed, num("reps") as usize),
        "delta" => workloads::delta(scale, seed, num("seconds"), MIN_REPLAYS),
        "serve" => workloads::serve(
            scale,
            seed,
            num("seconds"),
            SERVE_ROUNDS,
            SERVE_SETUPS_PER_ROUND,
        ),
        "trace" => {
            let workload = get("workload");
            layers::trace(&layers::TraceConfig {
                workload,
                scale,
                seed,
                replay_feeds: if workload == "delta_replay" {
                    common::FEEDS
                } else {
                    TRACE_FEEDS_LARGE
                },
                queries: TRACE_QUERIES,
                paper_repro: Path::new(get("paper-repro")),
                spans_out: Path::new(get("spans-out")),
            })
        }
        other => fail(&format!("unknown command {other:?}")),
    };
    println!("{}", report.to_json());
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench-harness: {message}");
    std::process::exit(2);
}
