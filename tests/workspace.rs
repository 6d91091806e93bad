//! Workspace-level integration tests: cross-crate invariants on the full
//! simulate→analyze round trip.

use rtbh::core::Analyzer;
use rtbh::net::{Prefix, TimeDelta};
use rtbh::sim::ScenarioConfig;

#[test]
fn same_seed_same_corpus_same_findings() {
    let a = rtbh::sim::run(&ScenarioConfig::tiny());
    let b = rtbh::sim::run(&ScenarioConfig::tiny());
    assert_eq!(a.corpus.digest(), b.corpus.digest());

    let ra = Analyzer::with_defaults(a.corpus).full();
    let rb = Analyzer::with_defaults(b.corpus).full();
    assert_eq!(ra.headline(), rb.headline());
    assert_eq!(ra.classification.counts(), rb.classification.counts());
}

#[test]
fn scaled_scenarios_run_end_to_end() {
    let mut config = ScenarioConfig::scaled(0.02);
    config.days = 9; // keep the test quick
    config.targeted_phase = Some((3, 5));
    config.seed = 7;
    let out = rtbh::sim::run(&config);
    let report = Analyzer::with_defaults(out.corpus).full();
    assert!(report.headline().total_events > 0);
}

#[test]
fn corpus_serde_round_trip() {
    let mut config = ScenarioConfig::tiny();
    // Shrink for serialization speed.
    config.visible_attack_events = 4;
    config.constant_events = 3;
    config.invisible_events = 3;
    config.zombie_events = 2;
    config.squatting = (1, 1);
    let out = rtbh::sim::run(&config);
    let json = rtbh_json::to_string(&out.corpus);
    let back: rtbh::core::Corpus = rtbh_json::from_str(&json).expect("corpus deserializes");
    assert_eq!(back.digest(), out.corpus.digest());
    assert_eq!(back.updates.len(), out.corpus.updates.len());
    assert_eq!(back.flows.len(), out.corpus.flows.len());
}

#[test]
fn analysis_never_reads_ground_truth() {
    // Structural check: the analyzer works from a corpus alone. (The type
    // system enforces this — Analyzer::new takes only Corpus — so this test
    // mainly documents the property and ensures it keeps compiling.)
    let out = rtbh::sim::run(&ScenarioConfig::tiny());
    let truth_events = out.truth.events.len();
    let analyzer = Analyzer::with_defaults(out.corpus);
    assert!(!analyzer.events().is_empty());
    assert!(truth_events > 0);
}

#[test]
fn blackholed_prefixes_stay_inside_victim_space() {
    // Simulation invariant: every blackholed prefix is covered by a seeded
    // (advertised) route, so the analysis can always attribute origins.
    let out = rtbh::sim::run(&ScenarioConfig::tiny());
    let routes: Vec<(Prefix, rtbh::net::Asn)> = out.corpus.routes.clone();
    for update in out.corpus.updates.blackholes() {
        let covered = routes
            .iter()
            .any(|(p, _)| p.covers(update.prefix) || update.prefix.covers(*p));
        assert!(
            covered,
            "blackholed prefix {} not in route table",
            update.prefix
        );
    }
}

#[test]
fn all_figures_render_on_tiny_corpus() {
    let ctx = rtbh_bench::Context::build(ScenarioConfig::tiny());
    let reports = rtbh_bench::all_figures(&ctx);
    assert_eq!(reports.len(), 24, "one report per table/figure/section");
    let mut ids = std::collections::BTreeSet::new();
    for ((id, _), r) in rtbh_bench::figures::FIGURES.iter().zip(&reports) {
        assert_eq!(*id, r.id, "the table names each report by its own id");
        assert!(!r.render().is_empty());
        assert!(ids.insert(r.id), "duplicate experiment id {}", r.id);
        // Every report must carry either rendered lines or checks.
        assert!(
            !r.lines.is_empty() || !r.checks.is_empty(),
            "{} is empty",
            r.id
        );
    }
    // Both outputs are pinned byte for byte: the JSON side-channel is the
    // bytes `figures --tiny --json` writes, the document the bytes
    // `figures --tiny` prints. Re-bless with RTBH_BLESS=1 only when a
    // figure or the document's layout is meant to move.
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let json = rtbh_json::to_string_pretty(&reports);
    rtbh_testkit::assert_snapshot(&golden.join("figures_tiny.json"), &json);
    let document = rtbh_bench::render::document(&ctx, &reports);
    rtbh_testkit::assert_snapshot(&golden.join("experiments_tiny.md"), &document);
}

#[test]
fn analyzer_offset_correction_improves_alignment() {
    let corpus = rtbh::sim::run(&ScenarioConfig::tiny()).corpus;
    let analyzer = Analyzer::with_defaults(corpus.clone());
    let alignment = analyzer.alignment().expect("alignment available");
    // The corrected flows, re-scanned, should peak at ~zero offset.
    let (cleaned, _) = rtbh::core::clean::clean_flows_with_workers(&corpus, 1);
    let corrected =
        rtbh::core::align::shift_flows_with_workers(&cleaned, alignment.estimated_offset(), 1);
    let rescan = rtbh::core::align::estimate_offset_with_workers(
        &corpus.updates,
        &corrected,
        corpus.period.end,
        TimeDelta::millis(500),
        TimeDelta::millis(10),
        1,
    )
    .expect("rescan works");
    assert!(
        rescan.estimated_offset().abs() <= alignment.estimated_offset().abs(),
        "correction must not worsen alignment: {:?} vs {:?}",
        rescan.estimated_offset(),
        alignment.estimated_offset()
    );
}
