//! Concurrency regression gate: the scoped-thread stage schedule must be
//! observationally identical to the inline one.
//!
//! `Analyzer::full` runs its five stage chains on `min(workers, 5)`
//! threads, so a 1-worker analyzer, whose calling thread runs every chain,
//! is the sequential reference. Every analysis stage is a pure function of shared immutable
//! inputs (`&SampleIndex`, `&ColumnarFlows`, `&[RtbhEvent]`), and every map in
//! the report types is a `BTreeMap`, so the two schedules must serialize
//! to byte-identical JSON. Any divergence means a stage grew hidden
//! mutable state or nondeterministic iteration — exactly the class of bug
//! this test exists to catch before it ships.

use rtbh_core::corpus::Corpus;
use rtbh_core::pipeline::AnalyzerConfig;
use rtbh_core::profile::ExecutionMode;
use rtbh_core::stream::{StreamConfig, StreamDriver};
use rtbh_core::Analyzer;
use rtbh_sim::ScenarioConfig;

const STAGES: [&str; 10] = [
    "load",
    "provenance",
    "visibility",
    "acceptance",
    "preevents",
    "protocols",
    "filtering",
    "hosts",
    "collateral",
    "classification",
];

/// An analyzer over `corpus` with the corpus-adapted configuration at
/// `workers` kernel workers.
fn analyzer_at(corpus: &Corpus, workers: usize) -> Analyzer {
    let config = AnalyzerConfig::for_corpus(corpus).with_workers(workers);
    Analyzer::new(corpus.clone(), config)
}

#[test]
fn parallel_report_serializes_identically_to_sequential() {
    let mut config = ScenarioConfig::tiny();
    config.seed = 0xD15E_A5E5;
    let out = rtbh_sim::run(&config);

    let sequential = rtbh_json::to_string(&analyzer_at(&out.corpus, 1).full());
    let parallel = rtbh_json::to_string(&analyzer_at(&out.corpus, 7).full());
    assert_eq!(sequential, parallel);
}

#[test]
fn both_modes_profile_every_stage_in_canonical_order() {
    let out = rtbh_sim::run(&ScenarioConfig::tiny());

    let (_, par) = analyzer_at(&out.corpus, 2).full_with_profile();
    let (_, seq) = analyzer_at(&out.corpus, 1).full_with_profile();

    let par_names: Vec<&str> = par.stages.iter().map(|s| s.stage.as_str()).collect();
    let seq_names: Vec<&str> = seq.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(par_names, STAGES);
    assert_eq!(seq_names, STAGES);

    // The two modes profile identical input footprints — only timings and
    // thread counts may differ.
    for (p, s) in par.stages.iter().zip(&seq.stages) {
        assert_eq!(p.updates_scanned, s.updates_scanned, "stage {}", p.stage);
        assert_eq!(p.samples_scanned, s.samples_scanned, "stage {}", p.stage);
        assert_eq!(p.events_touched, s.events_touched, "stage {}", p.stage);
    }
    assert_eq!(par.mode, ExecutionMode::Parallel);
    assert_eq!(seq.mode, ExecutionMode::Sequential);
    // Two workers: the calling thread and one scoped thread.
    assert_eq!(par.worker_threads, 1);
    assert_eq!(seq.worker_threads, 0);
    assert!(par.total_wall_ns > 0);
    assert!(seq.total_wall_ns > 0);
}

#[test]
fn hosts_row_counts_each_indexed_id_once() {
    // The host sweep walks every prefix's `towards` and `from` lists once,
    // so its footprint is the index's total, not the per-event sum that
    // counts a prefix again for each of its events.
    let out = rtbh_sim::run(&ScenarioConfig::tiny());
    let analyzer = analyzer_at(&out.corpus, 2);
    let index = analyzer.index();
    let total: u64 = (0..index.prefixes().len())
        .map(|id| (index.towards(id).len() + index.from(id).len()) as u64)
        .sum();
    assert!(total > 0);
    assert_eq!(index.total_ids(), total);

    let (_, par) = analyzer.full_with_profile();
    let (_, seq) = analyzer_at(&out.corpus, 1).full_with_profile();
    for profile in [par, seq] {
        let hosts = profile.stages.iter().find(|s| s.stage == "hosts").unwrap();
        assert_eq!(hosts.samples_scanned, total);
        assert_eq!(hosts.events_touched, analyzer.events().len() as u64);
    }
}

#[test]
fn worker_counts_do_not_change_the_report() {
    // The data-parallel sample kernels (offset votes, clock shift, index
    // build) merge per-chunk results exactly, and the stage chains share
    // no state, so `--threads N` must produce a byte-identical report for
    // every N: fewer threads than chains, exactly as many, and more.
    let mut scenario = ScenarioConfig::tiny();
    scenario.seed = 0xC0FF_EE00;
    let out = rtbh_sim::run(&scenario);

    let reference = rtbh_json::to_string(&analyzer_at(&out.corpus, 1).full());
    for workers in [2usize, 3, 5, 6, 8] {
        let (report, profile) = analyzer_at(&out.corpus, workers).full_with_profile();
        assert_eq!(
            rtbh_json::to_string(&report),
            reference,
            "{workers}-worker report diverged"
        );
        // The calling thread claims chains too, and no thread idles
        // without a chain to claim.
        assert_eq!(
            profile.worker_threads,
            workers.min(5) - 1,
            "{workers} workers"
        );
    }
}

#[test]
fn profiles_record_the_prepare_kernels() {
    // A recorder skewed by −40 ms: the estimated offset is non-zero, yet
    // prepare has no separate shift row — pass 2 stamps the offset while
    // it seals.
    let mut scenario = ScenarioConfig::tiny();
    scenario.clock_offset_ms = -40;
    let out = rtbh_sim::run(&scenario);
    let fed = out.corpus.flows.len() as u64;
    let config = AnalyzerConfig::for_corpus(&out.corpus).with_workers(3);
    let analyzer = Analyzer::new(out.corpus, config);
    assert_eq!(analyzer.kernel_workers(), 3);
    let offset = analyzer
        .alignment()
        .expect("dropped samples")
        .estimated_offset();
    assert_ne!(offset, rtbh_net::TimeDelta::ZERO);

    let (_, profile) = analyzer.full_with_profile();
    // The two analysis stages with a sharded kernel run it at one worker
    // inside the stage phase, where the other chains hold the threads.
    for stage in ["acceptance", "provenance"] {
        let st = profile.stage(stage).expect("stage profiled");
        assert_eq!(st.workers, 1, "stage {stage}");
    }
    let names: Vec<&str> = profile.prepare.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(names, ["clean", "align", "events", "enrich", "index"]);
    let kept = analyzer.columns().len() as u64;
    assert!(kept < fed, "the tiny corpus has internal samples to clean");
    for s in &profile.prepare {
        let (workers, samples) = match s.stage.as_str() {
            "clean" => (3, fed),
            "align" | "enrich" | "index" => (3, kept),
            _ => (1, 0),
        };
        assert_eq!(s.workers, workers, "stage {}", s.stage);
        assert_eq!(s.samples_scanned, samples, "stage {}", s.stage);
    }
}

#[test]
fn profile_serializes_to_json() {
    let out = rtbh_sim::run(&ScenarioConfig::tiny());
    let analyzer = Analyzer::with_defaults(out.corpus);
    let (_, profile) = analyzer.full_with_profile();
    let json = rtbh_json::to_value(&profile);
    assert_eq!(
        json.field("stages")
            .expect_arr("stages")
            .map(|s| s.len())
            .ok(),
        Some(STAGES.len())
    );
    assert!(matches!(
        json.field("total_wall_ns"),
        rtbh_json::Json::U64(_)
    ));
}

#[test]
fn prepared_analyzers_hold_one_sample_store() {
    // Preparation consumes the sample log, in batch and at the stream's
    // finalize alike: the kept samples live on only as columns, and the
    // cleaning report carries the count of samples fed.
    let out = rtbh_sim::run(&ScenarioConfig::tiny());
    let fed = out.corpus.flows.len();
    let batch = analyzer_at(&out.corpus, 2);
    let stream = StreamDriver::new(4096)
        .replay(&out.corpus, StreamConfig::for_corpus(&out.corpus))
        .analyzer;
    for (path, analyzer) in [("batch", &batch), ("stream", &stream)] {
        let clean = analyzer.clean_report();
        assert!(analyzer.corpus().flows.is_empty(), "{path}");
        assert_eq!(clean.total, fed, "{path}");
        assert!(clean.internal_removed > 0, "{path}: nothing was cleaned");
        assert_eq!(
            analyzer.columns().len(),
            clean.total - clean.internal_removed,
            "{path}"
        );
    }
}
