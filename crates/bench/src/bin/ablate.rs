//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * `threshold` — EWMA anomaly threshold 2.5·SD vs 10·SD (paper §5.3:
//!   "we tested extreme configurations such as thresholds of 10·SD with very
//!   stable results");
//! * `delta` — the Δ merge threshold's effect on event counts and
//!   anomaly-correlation shares (Fig. 10's knee);
//! * `sampling` — sampling rate 1:1k / 1:10k / 1:100k vs the share of
//!   pre-RTBH windows without data (§6.3's "sparse data" challenge);
//! * `strategy` — RTBH (drop-all) vs port-ACL vs source-AS blacklist:
//!   attack residue and collateral damage (§5.5/§7.2).
//!
//! ```text
//! ablate [--scale F] [threshold | delta | sampling | strategy]...
//! ```
//!
//! Without names every section runs. Sections print in the order above;
//! the default scale is 0.12. An unknown name or flag, or a `--scale`
//! that is not a finite factor above zero, exits 2 with the usage text.

use std::cell::LazyCell;

use rtbh_core::preevent::PreEventConfig;
use rtbh_core::Analyzer;
use rtbh_net::{AmplificationProtocol, TimeDelta};
use rtbh_sim::{Corpus, ScenarioConfig};
use rtbh_stats::EwmaConfig;

/// Every section by name, in the order they print.
const SECTIONS: [&str; 4] = ["threshold", "delta", "sampling", "strategy"];

fn usage() -> ! {
    eprintln!("usage: ablate [--scale F] [{}]...", SECTIONS.join(" | "));
    std::process::exit(2);
}

fn main() {
    let mut config = ScenarioConfig::scaled(0.12);
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                config = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .and_then(ScenarioConfig::try_scaled)
                    .unwrap_or_else(|| usage());
            }
            name if SECTIONS.contains(&name) => wanted.push(arg),
            _ => usage(),
        }
    }
    let run = |name: &str| wanted.is_empty() || wanted.iter().any(|w| w == name);

    eprintln!(
        "scenario: {} days, {} members, {} events",
        config.days,
        config.members,
        config.total_events()
    );

    // One simulation serves threshold, delta and strategy, and one default
    // analyzer of it threshold and strategy; sampling reads them for the
    // scenario's own rate and simulates each other rate.
    let corpus = LazyCell::new(|| rtbh_sim::run(&config).corpus);
    let analyzer = LazyCell::new(|| Analyzer::with_defaults(corpus.clone()));
    if run("threshold") {
        ablate_threshold(&analyzer);
    }
    if run("delta") {
        ablate_delta(&corpus);
    }
    if run("sampling") {
        ablate_sampling(&config, &corpus, &analyzer);
    }
    if run("strategy") {
        ablate_strategy(&analyzer);
    }
}

/// §5.3: the anomaly classification must be stable from 2.5·SD to 10·SD.
fn ablate_threshold(analyzer: &Analyzer) {
    println!("\n== ablation: EWMA anomaly threshold ==");
    println!(
        "{:>9} {:>10} {:>14} {:>10}",
        "k·SD", "no-data", "data-no-anom", "anomaly"
    );
    for k in [1.5, 2.5, 5.0, 10.0] {
        let mut pre_config = PreEventConfig::PAPER;
        pre_config.ewma = EwmaConfig {
            span: 288,
            threshold_sd: k,
        };
        let pre = rtbh_core::preevent::analyze_preevents(
            analyzer.events(),
            analyzer.index(),
            analyzer.columns(),
            &pre_config,
        );
        let (a, b, c) = pre.class_shares();
        println!("{k:>9.1} {a:>10.3} {b:>14.3} {c:>10.3}");
    }
    println!("(paper: \"very stable results\" between 2.5 and 10 SD)");
}

/// Fig. 10: Δ sweep and its effect on the anomaly-correlated share.
fn ablate_delta(corpus: &Corpus) {
    println!("\n== ablation: event merge threshold Δ ==");
    println!(
        "{:>8} {:>8} {:>10} {:>10}",
        "Δ (min)", "events", "fraction", "anomaly%"
    );
    for minutes in [1i64, 5, 10, 30] {
        let mut cfg = rtbh_core::pipeline::AnalyzerConfig::for_corpus(corpus);
        cfg.merge_delta = TimeDelta::minutes(minutes);
        let analyzer = Analyzer::new(corpus.clone(), cfg);
        let announcements = corpus
            .updates
            .blackholes()
            .filter(|u| u.is_announce())
            .count();
        let pre = analyzer.preevents();
        let (_, _, anomaly) = pre.class_shares();
        println!(
            "{minutes:>8} {:>8} {:>10.3} {:>10.3}",
            analyzer.events().len(),
            analyzer.events().len() as f64 / announcements.max(1) as f64,
            anomaly
        );
    }
    println!("(paper: knee at 10 min; 400k announcements → 34k events = 8.5%)");
}

/// §6.3: sampling-rate sensitivity of the "no pre-event data" share. The
/// row at the scenario's own rate reads the shared `corpus` and
/// `analyzer`, which a simulation at that rate would only repeat.
fn ablate_sampling(config: &ScenarioConfig, corpus: &Corpus, analyzer: &Analyzer) {
    println!("\n== ablation: sampling rate vs pre-event visibility ==");
    println!(
        "{:>10} {:>10} {:>10} {:>12}",
        "rate 1:N", "samples", "no-data%", "anomaly%"
    );
    for rate in [1_000u32, 10_000, 100_000] {
        let (flows, pre) = if rate == config.sampling_rate {
            (corpus.flows.len(), analyzer.preevents())
        } else {
            let mut c = config.clone();
            c.sampling_rate = rate;
            let corpus = rtbh_sim::run(&c).corpus;
            (
                corpus.flows.len(),
                Analyzer::with_defaults(corpus).preevents(),
            )
        };
        let (no_data, _, anomaly) = pre.class_shares();
        println!("{rate:>10} {flows:>10} {no_data:>10.3} {anomaly:>12.3}");
    }
    println!("(coarser sampling blinds the vantage point: more no-data pre-windows)");
}

/// §5.5/§7.2: RTBH vs fine-grained filtering vs source blacklists.
fn ablate_strategy(analyzer: &Analyzer) {
    println!("\n== ablation: mitigation strategy ==");
    let pre = analyzer.preevents();
    let filtering = analyzer.filtering(&pre);
    let cols = analyzer.columns();

    // For every qualifying attack event, compare three strategies on its
    // during-event traffic: (1) RTBH drops everything; (2) a port ACL drops
    // amplification-signature packets; (3) a source blacklist of the top-10
    // origin ASes drops their packets.
    let top_origins: std::collections::BTreeSet<_> = filtering
        .top_participants(true, 10)
        .into_iter()
        .map(|(a, _)| a)
        .collect();
    let mut rtbh_realized = 0u64;
    let mut acl_attack = 0u64;
    let mut blacklist_attack = 0u64;
    let mut total_attack = 0u64;
    for emu in &filtering.per_event {
        let event = &analyzer.events()[emu.event_id];
        let cover = event.coverage();
        let ids = analyzer
            .index()
            .prefix_id(event.prefix)
            .map(|id| analyzer.index().towards(id))
            .unwrap_or(&[]);
        for &i in cols.window_ids(ids, cover.start, cover.end) {
            let i = i as usize;
            total_attack += 1;
            // RTBH's *realized* effect: only traffic whose carrier accepted
            // the /32 route was actually discarded (the paper's ~50%).
            if cols.is_dropped(i) {
                rtbh_realized += 1;
            }
            if AmplificationProtocol::classify(cols.protocol(i), cols.src_port(i), cols.fragment(i))
                .is_some()
            {
                acl_attack += 1;
            }
            if cols.origin(i).is_some_and(|o| top_origins.contains(&o)) {
                blacklist_attack += 1;
            }
        }
    }
    let pct = |x: u64| x as f64 * 100.0 / total_attack.max(1) as f64;
    println!("{:>34} {:>10} {:>22}", "strategy", "removed%", "collateral");
    println!(
        "{:>34} {:>9.1}% {:>22}",
        "RTBH (realized, peers decide)",
        pct(rtbh_realized),
        "all accepted traffic"
    );
    println!(
        "{:>34} {:>9.1}% {:>22}",
        "FlowSpec at peers (18 rules)",
        pct(acl_attack),
        "none (where accepted)"
    );
    println!(
        "{:>34} {:>9.1}% {:>22}",
        "Advanced Blackholing (fabric ACL)",
        pct(acl_attack),
        "none"
    );
    println!(
        "{:>34} {:>9.1}% {:>22}",
        "top-10 origin blacklist",
        pct(blacklist_attack),
        "none"
    );
    println!(
        "(paper \u{a7}5.5/\u{a7}7.2: the same 18 port rules remove nearly everything; enforcing\n\
         them on the switching fabric \u{2014} Advanced Blackholing \u{2014} additionally sidesteps\n\
         peer acceptance, which caps realized RTBH at ~50%. Source blacklists fail:\n\
         amplifiers spread over thousands of origin ASes.)"
    );
}
