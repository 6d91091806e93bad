//! Differential fuzz: sequential vs parallel `FullReport` identity under
//! fuzzed `AnalyzerConfig`s.
//!
//! The pipeline promises byte-identical JSON reports for every worker
//! count, and so for both stage schedules: inline at one worker, scoped
//! threads above (the stage DAG is pure over shared immutable inputs, and
//! the data-parallel kernels merge per-chunk results in chunk order). The
//! existing `determinism` test checks that promise at the paper
//! configuration; this suite checks it across the configuration space —
//! fuzzed merge deltas, slot sizes, EWMA windows, offset-scan grids —
//! where a stage with hidden order-dependence would slip through.
//!
//! One case = three full pipeline runs (the inline 1-worker reference,
//! then the scoped schedule at workers 2 and 7), so the iteration count is
//! small by default and *capped* even under `RTBH_FUZZ_ITERS`.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_core::classify::ClassifyConfig;
use rtbh_core::hosts::HostConfig;
use rtbh_core::pipeline::AnalyzerConfig;
use rtbh_core::preevent::PreEventConfig;
use rtbh_core::Analyzer;
use rtbh_net::TimeDelta;
use rtbh_rng::{ChaChaRng, Rng};
use rtbh_sim::ScenarioConfig;
use rtbh_stats::EwmaConfig;
use rtbh_testkit::FuzzTarget;

/// A small corpus: big enough that every stage has work (all event classes
/// populated), small enough that a debug-build pipeline run stays fast.
fn small_corpus() -> rtbh_core::corpus::Corpus {
    let mut config = ScenarioConfig::tiny();
    config.visible_attack_events = 4;
    config.constant_events = 2;
    config.invisible_events = 2;
    config.zombie_events = 2;
    config.squatting = (1, 1);
    rtbh_sim::run(&config).corpus
}

/// Draws an `AnalyzerConfig` from ranges wide enough to stress every stage
/// but bounded so a single run stays cheap (e.g. the offset scan is capped
/// at a few hundred grid points).
fn arb_config(rng: &mut ChaChaRng) -> AnalyzerConfig {
    AnalyzerConfig {
        merge_delta: TimeDelta::minutes(rng.gen_range(1..=30i64)),
        preevent: PreEventConfig {
            slot: TimeDelta::minutes(rng.gen_range(2..=10i64)),
            pre_window: TimeDelta::hours(rng.gen_range(12..=72i64)),
            ewma: EwmaConfig {
                span: rng.gen_range(24..=288usize),
                threshold_sd: rng.gen_range(1.5..4.0f64),
            },
            anomaly_horizon: TimeDelta::minutes(rng.gen_range(5..=30i64)),
            min_anomalous_value: rng.gen_range(2.0..8.0f64),
        },
        host: HostConfig {
            min_days: rng.gen_range(2..=4usize),
            reaction: TimeDelta::minutes(rng.gen_range(5..=20i64)),
            server_max_variation: rng.gen_range(0.2..0.4f64),
            client_min_variation: rng.gen_range(0.6..0.8f64),
        },
        classify: ClassifyConfig {
            squatting_min_duration: TimeDelta::days(rng.gen_range(1..=4i64)),
            zombie_min_duration: TimeDelta::days(rng.gen_range(1..=7i64)),
            zombie_max_packets: rng.gen_range(5..=20u64),
        },
        offset_half_range: TimeDelta::seconds(rng.gen_range(1..=3i64)),
        offset_step: TimeDelta::millis(rng.gen_range(20..=50i64)),
        visibility_step: TimeDelta::minutes(rng.gen_range(30..=360i64)),
        load_step: TimeDelta::minutes(rng.gen_range(1..=60i64)),
        workers: 0, // overridden per run below
        // Sealed-chunk capacity must never move report bytes either; fuzz
        // it from sub-corpus slabs up to whole-corpus (0 = ABI default).
        chunk_capacity: [0usize, 64, 1024, 4096][rng.gen_range(0..4usize)],
    }
}

#[test]
fn sequential_and_parallel_reports_identical_under_fuzzed_configs() {
    let corpus = small_corpus();
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "report_identity",
        test_name: "sequential_and_parallel_reports_identical_under_fuzzed_configs",
        base_seed: seeds::FUZZ_REPORT_IDENTITY,
    };
    target.run_capped(3, 12, |seed, rng| {
        let config = arb_config(rng);
        let reference = Analyzer::new(corpus.clone(), config.with_workers(1)).full();
        let reference = rtbh_json::to_string(&reference);
        for workers in [2usize, 7] {
            let analyzer = Analyzer::new(corpus.clone(), config.with_workers(workers));
            let parallel = rtbh_json::to_string(&analyzer.full());
            assert_eq!(
                parallel, reference,
                "parallel report (workers={workers}) diverged from the sequential \
                 reference under config seed {seed:#x}: {config:?}"
            );
        }
    });
}
