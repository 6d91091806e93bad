//! Golden conformance suite: pins the full analysis output on a fixed
//! scenario, plus range assertions tying the report to the paper's
//! headline findings (§4–§6).
//!
//! Two layers of defense (plus `journal.jsonl`, the stream replay's live
//! verdict journal, pinned the same way):
//!
//! * the **snapshot** (`tests/golden/report.json`) catches *any* drift in
//!   the science — a future perf or refactor PR that changes one count or
//!   float fails here with a line diff, and must regenerate the snapshot
//!   with `RTBH_BLESS=1` to make the change reviewable in `git diff`;
//! * the **band assertions** catch a blessed-but-wrong snapshot — however
//!   the numbers drift, they must stay inside the paper's published bands.
//!
//! The scenario is `ScenarioConfig::tiny()` with a few extra visible
//! attacks; at this scale the simulated bands land where the paper's
//! measurements do (probed across seeds before pinning).

use rtbh_core::classify::UseCase;
use rtbh_core::pipeline::FullReport;
use rtbh_core::stream::{render_journal, StreamConfig, StreamDriver};
use rtbh_core::Analyzer;
use rtbh_json::{Json, ToJson};
use rtbh_net::TimeDelta;
use rtbh_sim::ScenarioConfig;
use rtbh_testkit::assert_snapshot;

use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The pinned scenario. Changing anything here invalidates both snapshots.
fn scenario() -> ScenarioConfig {
    let mut config = ScenarioConfig::tiny();
    config.visible_attack_events = 20;
    config
}

fn report() -> FullReport {
    let out = rtbh_sim::run(&scenario());
    Analyzer::with_defaults(out.corpus).full()
}

/// Pins the scenario parameters and the corpus digest: if the simulator's
/// output drifts (new RNG draws, changed event synthesis), this fails
/// *before* the report snapshot, pointing at the corpus rather than the
/// analysis.
#[test]
fn scenario_and_corpus_digest_are_pinned() {
    let config = scenario();
    let corpus = rtbh_sim::run(&config).corpus;
    let pinned = Json::Obj(vec![
        ("scenario".into(), config.to_json()),
        (
            "corpus_digest".into(),
            Json::Str(format!("{:#018x}", corpus.digest())),
        ),
        ("updates".into(), Json::U64(corpus.updates.len() as u64)),
        ("flow_samples".into(), Json::U64(corpus.flows.len() as u64)),
    ]);
    let text = rtbh_json::to_string_pretty(&pinned) + "\n";
    assert_snapshot(&golden_path("scenario.json"), &text);
}

/// Pins the entire `FullReport`, byte for byte.
#[test]
fn full_report_matches_snapshot() {
    let text = rtbh_json::to_string_pretty(&report()) + "\n";
    assert_snapshot(&golden_path("report.json"), &text);
}

/// Pins the live verdict journal of a stream replay of the scenario, byte
/// for byte. The finalized stream report is pinned through `report.json`
/// (`stream_diff` proves it equal to batch); the journal is the stream's
/// own output — run boundaries, use cases and the pre-event backfill's
/// `anomaly` flags — and no other test compares it with a fixed reference.
#[test]
fn stream_journal_matches_snapshot() {
    let corpus = rtbh_sim::run(&scenario()).corpus;
    let run = StreamDriver::new(4096).replay(&corpus, StreamConfig::for_corpus(&corpus));
    assert_snapshot(&golden_path("journal.jsonl"), &render_journal(&run.journal));
}

/// The paper's headline bands (abstract, §4–§6). These hold for the pinned
/// scenario by construction of the simulator's ground truth — and must keep
/// holding through any blessed snapshot change.
#[test]
fn report_stays_inside_paper_bands() {
    let report = report();
    let headline = report.headline();

    // ~1/3 of RTBH events are preceded by a detectable traffic anomaly
    // within one hour (paper §5.2).
    let correlated = report.preevents.anomaly_share_within(TimeDelta::hours(1));
    assert!(
        (0.28..=0.40).contains(&correlated),
        "correlated-event fraction {correlated:.3} left the ≈1/3 band"
    );

    // /32 blackholes drop only about half the packets (paper §5.1: ~53%).
    let d32 = headline.drop_rate_32_packets;
    assert!(
        (0.45..=0.60).contains(&d32),
        "/32 drop rate {d32:.3} left the [0.45, 0.60] band"
    );

    // Blackholes at /24 or shorter drop nearly everything (paper: 93–99%).
    let (d24, _) = report
        .acceptance
        .drop_rate_for_length(24)
        .expect("pinned scenario has /24 events");
    assert!(
        (0.90..=1.0).contains(&d24),
        "/24 drop rate {d24:.3} left the [0.90, 1.0] band"
    );

    // Client-like victims dominate server-like ones (paper §6.1).
    assert!(
        headline.client_victims > headline.server_victims,
        "clients ({}) must outnumber servers ({})",
        headline.client_victims,
        headline.server_victims
    );

    // The zombie long tail exists (paper §6.2).
    let zombies = report
        .classification
        .counts()
        .get(&UseCase::Zombie)
        .copied()
        .unwrap_or(0);
    assert!(zombies > 0, "pinned scenario must classify some zombies");

    assert!(headline.total_events > 0);
}
