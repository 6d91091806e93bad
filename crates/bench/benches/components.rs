//! Micro-benchmarks of the pipeline's hot components.
//!
//! A dependency-free harness (`harness = false`): each benchmark runs a
//! fixed warm-up, then reports the best and median wall time over a fixed
//! number of iterations. Run with:
//!
//! ```text
//! cargo bench -p rtbh-bench
//! ```

use std::hint::black_box;
use std::time::Instant;

use rtbh_core::columns::{ColumnarFlows, EnrichedBuild};
use rtbh_core::events::infer_events;
use rtbh_core::index::{MacResolver, OriginTable, SampleIndex};
use rtbh_core::preevent::{analyze_preevents, PreEventConfig};
use rtbh_core::Analyzer;
use rtbh_net::{Ipv4Addr, Prefix, PrefixTrie, TimeDelta};
use rtbh_rng::{ChaChaRng, Rng};
use rtbh_sim::ScenarioConfig;
use rtbh_stats::{EwmaConfig, EwmaDetector};

/// Times `f` over `iters` iterations (after `warmup` unrecorded ones) and
/// prints best / median per-iteration wall time.
fn bench<T>(name: &str, warmup: usize, iters: usize, mut f: impl FnMut() -> T) {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut times_ns: Vec<u128> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        times_ns.push(start.elapsed().as_nanos());
    }
    times_ns.sort_unstable();
    let best = times_ns[0];
    let median = times_ns[times_ns.len() / 2];
    println!("{name:<40} best {best:>12} ns    median {median:>12} ns    ({iters} iters)");
}

fn bench_trie() {
    let mut rng = ChaChaRng::seed_from_u64(1);
    let mut trie = PrefixTrie::new();
    for i in 0..10_000u32 {
        let addr = Ipv4Addr::from_u32(rng.gen());
        let len = 16 + (i % 17) as u8;
        trie.insert(Prefix::new(addr, len).unwrap(), i);
    }
    let probes: Vec<Ipv4Addr> = (0..1024).map(|_| Ipv4Addr::from_u32(rng.gen())).collect();
    bench("trie_longest_match_10k_routes", 10, 100, || {
        let mut hits = 0usize;
        for p in &probes {
            if trie.longest_match(black_box(*p)).is_some() {
                hits += 1;
            }
        }
        hits
    });
}

fn bench_ewma() {
    let series: Vec<f64> = (0..864).map(|i| ((i * 37) % 23) as f64).collect();
    bench("ewma_span288_full_prewindow", 10, 100, || {
        let mut det = EwmaDetector::new(EwmaConfig::PAPER);
        let mut anomalies = 0usize;
        for &x in &series {
            if det.push(black_box(x)).is_some_and(|v| v.is_anomaly) {
                anomalies += 1;
            }
        }
        anomalies
    });
}

fn corpus() -> rtbh_sim::SimOutput {
    rtbh_sim::run(&ScenarioConfig::tiny())
}

fn bench_event_inference(out: &rtbh_sim::SimOutput) {
    bench("infer_events_tiny_corpus", 3, 30, || {
        infer_events(
            &out.corpus.updates,
            TimeDelta::minutes(10),
            out.corpus.period.end,
        )
    });
}

/// The enrichment pass the index is built from, on one worker.
fn enrich(out: &rtbh_sim::SimOutput) -> EnrichedBuild {
    ColumnarFlows::build_enriched(
        &out.corpus.updates,
        &out.corpus.flows,
        &MacResolver::build(&out.corpus),
        &OriginTable::build(&out.corpus.routes),
        out.corpus.period.end,
        1,
    )
}

fn index(enriched: &EnrichedBuild) -> SampleIndex {
    SampleIndex::from_columns(
        enriched.blackholes.clone(),
        enriched.blackhole_prefixes.clone(),
        &enriched.columns,
        1,
    )
}

fn bench_sample_index(out: &rtbh_sim::SimOutput) {
    let enriched = enrich(out);
    bench("sample_index_build_tiny_corpus", 3, 30, || index(&enriched));
}

fn bench_preevents(out: &rtbh_sim::SimOutput) {
    let events = infer_events(
        &out.corpus.updates,
        TimeDelta::minutes(10),
        out.corpus.period.end,
    );
    let enriched = enrich(out);
    let index = index(&enriched);
    bench("preevent_ewma_analysis_tiny_corpus", 3, 30, || {
        analyze_preevents(&events, &index, &enriched.columns, &PreEventConfig::PAPER)
    });
}

fn bench_full_pipeline(out: &rtbh_sim::SimOutput) {
    bench("analyzer_full_tiny_corpus", 1, 10, || {
        let analyzer = Analyzer::with_defaults(out.corpus.clone());
        analyzer.full()
    });
}

fn bench_json_serialization(out: &rtbh_sim::SimOutput) {
    let analyzer = Analyzer::with_defaults(out.corpus.clone());
    let report = analyzer.full();
    bench("json_compact_full_report_tiny", 3, 30, || {
        rtbh_json::to_string(black_box(&report))
    });
    bench("json_pretty_full_report_tiny", 3, 30, || {
        rtbh_json::to_string_pretty(black_box(&report))
    });
}

fn bench_scenario_generation() {
    bench("simulate_tiny_scenario", 1, 10, || {
        rtbh_sim::run(&ScenarioConfig::tiny())
    });
}

fn main() {
    bench_trie();
    bench_ewma();
    let out = corpus();
    bench_event_inference(&out);
    bench_sample_index(&out);
    bench_preevents(&out);
    bench_full_pipeline(&out);
    bench_json_serialization(&out);
    bench_scenario_generation();
}
