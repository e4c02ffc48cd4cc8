//! Regenerates every table and figure of *Cleaning the NVD* (Anwar et al.,
//! DSN 2021) over a calibrated synthetic corpus.
//!
//! ```text
//! cargo run --release -p nvd-analysis --bin paper-repro -- \
//!     [--scale 0.1] [--seed 42] [--profile fast|paper] [--experiments-md PATH] \
//!     [--quality-md PATH]
//! ```
//!
//! The case studies are independent given the cleaned database, so their
//! bodies render in parallel on the `minipar` pool (`NVD_JOBS` controls the
//! width) and print in paper order — stdout is byte-identical at any job
//! count, which the CI perf-smoke job verifies by diffing `NVD_JOBS=1`
//! against `NVD_JOBS=4` runs.

use std::fmt::Write as _;

use nvd_analysis::{
    disclosure_study, model_study, pca_study, quality_study, severity_study, types_study,
    vendor_study, Experiments,
};
use nvd_clean::severity::TrainProfile;
use nvd_model::prelude::Severity;

struct Args {
    scale: f64,
    seed: u64,
    profile: TrainProfile,
    experiments_md: Option<String>,
    quality_md: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.05,
        seed: 42,
        profile: TrainProfile::Fast,
        experiments_md: None,
        quality_md: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--scale" => args.scale = value().parse().expect("numeric --scale"),
            "--seed" => args.seed = value().parse().expect("numeric --seed"),
            "--profile" => {
                args.profile = match value().as_str() {
                    "paper" => TrainProfile::Paper,
                    "fast" => TrainProfile::Fast,
                    other => panic!("unknown profile {other:?}"),
                }
            }
            "--experiments-md" => args.experiments_md = Some(value()),
            "--quality-md" => args.quality_md = Some(value()),
            "--help" | "-h" => {
                println!(
                    "usage: paper-repro [--scale F] [--seed N] [--profile fast|paper] \
                     [--experiments-md PATH] [--quality-md PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    args
}

fn section(title: &str, body: &str, out: &mut String) {
    println!("\n=== {title} ===\n{body}");
    let _ = writeln!(out, "\n### {title}\n\n```text\n{body}```\n");
}

/// A paper artefact: title plus a body renderer. Renderers returning `None`
/// are skipped (e.g. PCA on a too-small database).
type Section<'a> = (String, Box<dyn Fn() -> Option<String> + Sync + 'a>);

fn sections<'a>(exps: &'a Experiments) -> Vec<Section<'a>> {
    let outcome = exps.report.severity.as_ref().expect("backport ran");
    let mut out: Vec<Section<'a>> = Vec::new();

    // --- corpus overview (paper §3) -------------------------------------
    out.push((
        "Dataset overview (§3)".into(),
        Box::new(move || {
            let stats = exps.corpus.database.stats();
            Some(format!(
                "CVEs: {}\nvendors: {}\nproducts: {}\nwith CVSS v3: {}\nreference URLs: {}\n",
                stats.cve_count,
                stats.distinct_vendors,
                stats.distinct_products,
                exps.corpus.database.iter().filter(|e| e.has_v3()).count(),
                exps.corpus
                    .database
                    .iter()
                    .map(|e| e.references.len())
                    .sum::<usize>(),
            ))
        }),
    ));

    // --- Fig. 1 -----------------------------------------------------------
    out.push((
        "Figure 1 — CDF of vulnerability lag times (paper: ≈38% zero, ≈70% ≤7d, ≈28% >7d)".into(),
        Box::new(move || {
            Some(disclosure_study::render_lag_cdf(
                &disclosure_study::lag_cdf(exps),
            ))
        }),
    ));
    out.push((
        "§4.1 — dates improved per v2 band (paper: L 37%, M 41%, H 65%)".into(),
        Box::new(move || {
            let improved = disclosure_study::improved_fraction_by_v2(exps);
            let improved_str = improved
                .iter()
                .map(|(k, v)| format!("{k:?}: {:.1}%", 100.0 * v))
                .collect::<Vec<_>>()
                .join("  ");
            Some(format!("{improved_str}\n"))
        }),
    ));

    // --- Table 2 -----------------------------------------------------------
    out.push((
        "Table 2 — vendor-pair patterns, confirmed/possible (paper: Tokens 260/260; strong signals >90% at LCS≥3)".into(),
        Box::new(move || {
            let pb = &exps.report.names.pattern_breakdown;
            Some(format!(
                "Tokens: {}/{} confirmed\nLCS≥3  #MP=0: {}/{}  #MP=1: {}/{}  #MP>1: {}/{}  Pref: {}/{}  PaV: {}/{}\nLCS<3  #MP=0: {}/{}  #MP=1: {}/{}  #MP>1: {}/{}  Pref: {}/{}  PaV: {}/{}\n",
                pb.tokens.1, pb.tokens.0,
                pb.mp_lcs3[0].1, pb.mp_lcs3[0].0,
                pb.mp_lcs3[1].1, pb.mp_lcs3[1].0,
                pb.mp_lcs3[2].1, pb.mp_lcs3[2].0,
                pb.pref_lcs3.1, pb.pref_lcs3.0,
                pb.pav_lcs3.1, pb.pav_lcs3.0,
                pb.mp_lcs_short[0].1, pb.mp_lcs_short[0].0,
                pb.mp_lcs_short[1].1, pb.mp_lcs_short[1].0,
                pb.mp_lcs_short[2].1, pb.mp_lcs_short[2].0,
                pb.pref_lcs_short.1, pb.pref_lcs_short.0,
                pb.pav_lcs_short.1, pb.pav_lcs_short.0,
            ))
        }),
    ));

    // --- Table 3 -----------------------------------------------------------
    out.push((
        "Table 3 — name inconsistencies across databases (paper: NVD 1,835/18,991; SF 2,094/24,760; ST 110/4,151)".into(),
        Box::new(move || {
            Some(vendor_study::render_name_scale(&vendor_study::name_scale(
                exps,
            )))
        }),
    ));

    // --- severity model tables ------------------------------------------------
    out.push((
        "Table 4 — ground-truth v2→v3 transitions (paper: L→M 84%, M→{M,H} 96%, H→{H,C} 95%)"
            .into(),
        Box::new(move || {
            Some(model_study::render_transition(
                "",
                &outcome.ground_truth_transition,
            ))
        }),
    ));
    out.push((
        "Table 5 — model errors (paper: LR 12.16/0.73, SVR 12.63/0.82, CNN 9.62/0.54, DNN 11.61/0.65)".into(),
        Box::new(move || Some(model_study::render_model_errors(outcome))),
    ));
    out.push((
        format!(
            "Table 6 — predicted v3 for v2-only CVEs (chosen model: {}; paper: ≈40% change severity)",
            outcome.chosen.label()
        ),
        Box::new(move || {
            Some(model_study::render_transition(
                "",
                &outcome.backport_transition,
            ))
        }),
    ));
    out.push((
        "Table 7 — accuracy overall and by input class (paper: CNN 86.29% overall, best on High 93.55%)".into(),
        Box::new(move || Some(model_study::render_model_accuracy(outcome))),
    ));

    // --- Table 8 -----------------------------------------------------------
    out.push((
        "Table 8 (left) — top dates by CVE publication (paper: NYE batches dominate)".into(),
        Box::new(move || {
            Some(disclosure_study::render_top_dates(
                &disclosure_study::top_publication_dates(&exps.cleaned, 10),
            ))
        }),
    ));
    out.push((
        "Table 8 (right) — top dates by estimated disclosure (paper: Mon/Tue vendor event days)"
            .into(),
        Box::new(move || {
            Some(disclosure_study::render_top_dates(
                &disclosure_study::top_disclosure_dates(&exps.cleaned, &exps.report.disclosure, 10),
            ))
        }),
    ));

    // --- Fig. 2 -----------------------------------------------------------
    out.push((
        "Figure 2 — CVEs per day of week (paper: disclosure skews Mon–Wed; NVD dates flatter)"
            .into(),
        Box::new(move || {
            Some(disclosure_study::render_day_of_week(
                &disclosure_study::day_of_week(exps),
            ))
        }),
    ));

    // --- Table 9 -----------------------------------------------------------
    out.push((
        "Table 9 — severity distribution over all CVEs (paper: v2 8.25/54.83/36.92; pv3 1.62/38.30/44.48/15.60)".into(),
        Box::new(move || {
            Some(severity_study::render_distribution(
                &severity_study::severity_distribution(exps),
            ))
        }),
    ));

    // --- Fig. 3 -----------------------------------------------------------
    out.push((
        "Figure 3 — yearly severity proportions under v2 / labelled v3 / pv3 (paper: sparse retroactive v3; declining critical share)".into(),
        Box::new(move || {
            Some(severity_study::render_yearly(
                &severity_study::yearly_severity(exps),
            ))
        }),
    ));

    // --- Table 10 -----------------------------------------------------------
    out.push((
        "Table 10 — top types by high/critical CVEs (paper: SQLI leads pv3-critical, BO leads highs)".into(),
        Box::new(move || {
            let mut t10 = String::new();
            for (view, band, label) in [
                (types_study::ScoreView::V2, Severity::High, "v2 High"),
                (
                    types_study::ScoreView::LabelledV3,
                    Severity::Critical,
                    "v3 Critical",
                ),
                (
                    types_study::ScoreView::LabelledV3,
                    Severity::High,
                    "v3 High",
                ),
                (
                    types_study::ScoreView::RectifiedV3,
                    Severity::Critical,
                    "pv3 Critical",
                ),
                (
                    types_study::ScoreView::RectifiedV3,
                    Severity::High,
                    "pv3 High",
                ),
            ] {
                t10.push_str(&types_study::render_top_types(
                    label,
                    &types_study::top_types(exps, view, band, 10),
                ));
                t10.push('\n');
            }
            Some(t10)
        }),
    ));

    // --- Table 11 -----------------------------------------------------------
    out.push((
        "Table 11 — top vendors by CVEs and products, after vs before correction".into(),
        Box::new(move || {
            Some(format!(
                "{}\n{}",
                vendor_study::render_vendor_ranks(
                    "By number of CVEs",
                    &vendor_study::top_vendors_by_cves(&exps.cleaned, 10),
                    &vendor_study::top_vendors_by_cves(&exps.corpus.database, 10),
                ),
                vendor_study::render_vendor_ranks(
                    "By number of products",
                    &vendor_study::top_vendors_by_products(&exps.cleaned, 10),
                    &vendor_study::top_vendors_by_products(&exps.corpus.database, 10),
                ),
            ))
        }),
    ));

    // --- Table 12 -----------------------------------------------------------
    out.push((
        "Table 12 — mislabeled-name CVEs by severity (paper: over a third High under v2; ≈1K critical)".into(),
        Box::new(move || {
            Some(vendor_study::render_mislabeled(
                &vendor_study::mislabeled_breakdown(exps),
            ))
        }),
    ));

    // --- Fig. 4 -----------------------------------------------------------
    out.push((
        "Figure 4 — average lag by v3 severity (paper: flat 47.6–66.8 days)".into(),
        Box::new(move || {
            Some(disclosure_study::render_average_lag(
                &disclosure_study::average_lag_by_severity(exps),
            ))
        }),
    ));

    // --- Fig. 5 -----------------------------------------------------------
    out.push((
        "Figure 5 — PCA of severity features (paper: Low scattered; Medium/High patterned)".into(),
        Box::new(move || {
            pca_study::pca_study(&exps.cleaned).map(|study| pca_study::render_pca(&study))
        }),
    ));

    // --- Tables 13–15 -----------------------------------------------------
    out.push((
        "Table 13 — predictions over the full ground truth".into(),
        Box::new(move || {
            Some(model_study::render_transition(
                "",
                &outcome.full_prediction_transition,
            ))
        }),
    ));
    out.push((
        "Table 14 — test split, ground truth".into(),
        Box::new(move || {
            Some(model_study::render_transition(
                "",
                &outcome.test_ground_truth_transition,
            ))
        }),
    ));
    out.push((
        "Table 15 — test split, predictions".into(),
        Box::new(move || {
            Some(model_study::render_transition(
                "",
                &outcome.test_prediction_transition,
            ))
        }),
    ));

    // --- §4.4 CWE stats ------------------------------------------------------
    out.push((
        "§4.4 — CWE rectification (paper: 26,312 Other / 7,566 noinfo / 1,293 unassigned ≈31%; 2,456 corrected)".into(),
        Box::new(move || {
            let cwe = &exps.report.cwe.stats;
            Some(format!(
                "Other: {}\nnoinfo: {}\nunassigned: {}\ndegenerate fraction: {}\ncorrected: {} (Other {}, missing {}, augmented {})\n",
                cwe.other_count,
                cwe.noinfo_count,
                cwe.unassigned_count,
                nvd_analysis::render::pct(cwe.degenerate_fraction(exps.cleaned.len())),
                cwe.total_corrected(),
                cwe.fixed_other,
                cwe.fixed_missing,
                cwe.augmented_typed,
            ))
        }),
    ));

    // --- Table 16 -----------------------------------------------------------
    out.push((
        "Table 16 — sampled CVEs with mislabeled vendors (paper: severe, exploitable)".into(),
        Box::new(move || {
            Some(vendor_study::render_case_samples(
                &vendor_study::case_samples(exps, 10),
            ))
        }),
    ));

    // --- quality ledger -------------------------------------------------
    out.push((
        "Quality ledger — typed per-CVE issue assessment (detector first, fixer second)".into(),
        Box::new(move || Some(quality_study::render_quality_summary(exps))),
    ));

    // --- §4.4 k-NN type classifier -------------------------------------------
    out.push((
        "§4.4 — description k-NN type classifier (paper: 65.60% over 151 classes)".into(),
        Box::new(move || {
            nvd_clean::train_type_classifier(
                &exps.cleaned,
                &nvd_clean::TypeClassifierOptions::default(),
            )
            .map(|(_, report)| {
                format!(
                    "accuracy: {}\nclasses: {}\ntrain/test: {}/{}\n",
                    nvd_analysis::render::pct(report.accuracy),
                    report.classes,
                    report.train_size,
                    report.test_size,
                )
            })
        }),
    ));

    out
}

fn main() {
    let args = parse_args();
    eprintln!(
        "generating corpus (scale {}, seed {}) and running the cleaning pipeline…",
        args.scale, args.seed
    );
    let exps = Experiments::run(args.scale, args.seed, args.profile);

    // Render every section body in parallel (the §5 case studies are
    // independent given the cleaned database), then print in paper order.
    let sections = sections(&exps);
    let bodies: Vec<Option<String>> = minipar::par_map(&sections, |(_, render)| render());

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `paper-repro --scale {} --seed {} --profile {:?}` over a\n\
         synthetic corpus of {} CVEs ({} reference pages). Absolute numbers scale\n\
         with `--scale`; the *shapes* below are the reproduction targets.\n",
        args.scale,
        args.seed,
        args.profile,
        exps.corpus.database.len(),
        exps.corpus.archive.len(),
    );
    for ((title, _), body) in sections.iter().zip(bodies) {
        if let Some(body) = body {
            section(title, &body, &mut md);
        }
    }

    if let Some(path) = args.experiments_md {
        std::fs::write(&path, md).expect("write experiments file");
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.quality_md {
        let report = quality_study::render_quality_md(&exps, args.scale, args.seed);
        std::fs::write(&path, report).expect("write quality report");
        eprintln!("wrote {path}");
    }
}
