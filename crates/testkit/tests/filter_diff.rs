//! Differential fuzz for the predicate-pushdown filter kernels
//! (`rtbh_core::filter`).
//!
//! Three suites pin the masked kernels against the rowwise reference:
//!
//! 1. **masked vs naive on fuzzed predicate sets**: randomized
//!    conjunctions of port/protocol/length/flag predicates, windows
//!    (degenerate and inverted included) and optional prefix joins (the
//!    index's `towards` list against the naive `dst_pid` walk) must
//!    aggregate identically through the pruned kernel, the unpruned
//!    scan kernel and the naive rowwise walk.
//! 2. **dictionary vs index id lists**: `IdDict::from_index` must
//!    decode back to the exact `towards` lists it encoded.
//! 3. **chunk capacity identity**: filter aggregates, prefix joins
//!    included, over stores prepared at capacities {64, 1024,
//!    whole-corpus} × workers {1, 2, 7} must equal the default-capacity
//!    naive answer — chunk boundaries must never move an aggregate.
//!
//! Every failure prints a `RTBH_FUZZ_SEED=…` reproduction command.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use std::sync::OnceLock;

use rtbh_core::filter::{
    filter_aggregate, filter_aggregate_naive, filter_aggregate_scan, CmpCol, CmpOp, FilterQuery,
    FlagCol, IdDict, Predicate,
};
use rtbh_core::pipeline::{Analyzer, AnalyzerConfig};
use rtbh_core::Corpus;
use rtbh_rng::Rng;
use rtbh_testkit::FuzzTarget;

fn target(test_name: &'static str, base_seed: u64) -> FuzzTarget {
    FuzzTarget {
        package: "rtbh-testkit",
        test_file: "filter_diff",
        test_name,
        base_seed,
    }
}

/// The suite's tiny corpus.
fn corpus() -> Corpus {
    rtbh_sim::run(&rtbh_sim::ScenarioConfig::tiny()).corpus
}

/// One tiny prepared corpus for the whole suite (preparation is far too
/// slow to run per fuzz case; the kernels under test are pure readers).
fn analyzer() -> &'static Analyzer {
    static ANALYZER: OnceLock<Analyzer> = OnceLock::new();
    ANALYZER.get_or_init(|| {
        let corpus = corpus();
        let config = AnalyzerConfig::for_corpus(&corpus).with_workers(2);
        Analyzer::new(corpus, config)
    })
}

fn arb_predicate<R: Rng>(rng: &mut R) -> Predicate {
    if rng.gen_bool(0.25) {
        let col = FlagCol::ALL[rng.gen_range(0..FlagCol::ALL.len())];
        Predicate::Flag {
            col,
            set: rng.gen_bool(0.5),
        }
    } else {
        let col = CmpCol::ALL[rng.gen_range(0..CmpCol::ALL.len())];
        let op = CmpOp::ALL[rng.gen_range(0..CmpOp::ALL.len())];
        // Values clustered where the corpus lives (ports, packet sizes)
        // plus boundary extremes.
        let value = match rng.gen_range(0..5usize) {
            0 => 0,
            1 => rng.gen_range(0..100u64) as u32,
            2 => rng.gen_range(0..2_000u64) as u32,
            3 => rng.gen_range(0..60_000u64) as u32,
            _ => col.max_value(),
        };
        Predicate::Cmp { col, op, value }
    }
}

fn arb_query<R: Rng>(rng: &mut R, span: (i64, i64)) -> FilterQuery {
    let n = rng.gen_range(0..=4usize);
    let predicates = (0..n).map(|_| arb_predicate(rng)).collect();
    let mut query = FilterQuery::matching(predicates);
    if rng.gen_bool(0.7) {
        let (start, end) = span;
        let width = end - start;
        let a = start + rng.gen_range(0..(2 * width) as u64) as i64 - width / 2;
        let b = a + rng.gen_range(0..(width + 3) as u64) as i64 - 1;
        query = query.with_window(a, b); // sometimes empty or inverted
    }
    query
}

#[test]
fn masked_kernels_match_naive_rowwise_on_fuzzed_predicates() {
    let analyzer = analyzer();
    let cols = analyzer.columns();
    let index = analyzer.index();
    let period = analyzer.corpus().period;
    let span = (period.start.as_millis(), period.end.as_millis());

    target(
        "masked_kernels_match_naive_rowwise_on_fuzzed_predicates",
        seeds::FUZZ_FILTER_DIFF,
    )
    .run(150, |seed, rng| {
        let mut query = arb_query(rng, span);
        let join = if rng.gen_bool(0.4) && !index.prefixes().is_empty() {
            let pid = rng.gen_range(0..index.prefixes().len());
            query = query.with_prefix(index.prefixes()[pid]);
            Some(pid as u32)
        } else {
            None
        };
        let naive = filter_aggregate_naive(cols, join, &query);
        let ids = join.map(|pid| index.towards(pid as usize));
        assert_eq!(
            filter_aggregate(cols, ids, &query),
            naive,
            "pruned kernel diverged (seed {seed:#x}): {query:?}"
        );
        assert_eq!(
            filter_aggregate_scan(cols, ids, &query),
            naive,
            "scan kernel diverged (seed {seed:#x}): {query:?}"
        );
    });
}

#[test]
fn dictionary_lists_match_index() {
    let index = analyzer().index();
    let dict = IdDict::from_index(index);

    // Exact round trip: every prefix's encoded list decodes to the
    // index's `towards` list, byte for byte.
    assert_eq!(dict.lists(), index.prefixes().len());
    for pid in 0..index.prefixes().len() {
        assert_eq!(
            dict.decode_list(pid),
            index.towards(pid),
            "dictionary list {pid} diverged from the index"
        );
    }
}

#[test]
fn filter_aggregates_identical_across_chunk_capacities() {
    let analyzer = analyzer();
    // Preparation consumes a corpus's samples, so every case re-prepares
    // a fresh copy of the suite's corpus.
    let corpus = corpus();
    let period = corpus.period;
    let span = (period.start.as_millis(), period.end.as_millis());
    let base = AnalyzerConfig::for_corpus(&corpus);
    let whole_corpus = analyzer.columns().len().next_power_of_two().max(64);

    // Reference answers from the default-capacity naive walk.
    let udp = Predicate::parse("protocol=17").unwrap();
    let dns = Predicate::parse("dst_port=53").unwrap();
    let frag = Predicate::parse("fragment=1").unwrap();
    let mid = span.0 + (span.1 - span.0) / 2;
    // The prefix with the most samples, so its list crosses chunks at the
    // small capacities.
    let index = analyzer.index();
    let busiest = (0..index.prefixes().len())
        .max_by_key(|&pid| index.towards(pid).len())
        .expect("the tiny corpus has blackholed prefixes");
    let prefix = index.prefixes()[busiest];
    let queries = [
        FilterQuery::matching(vec![]),
        FilterQuery::matching(vec![udp, dns]),
        FilterQuery::matching(vec![frag]).with_window(span.0, mid),
        FilterQuery::matching(vec![udp]).with_window(mid, span.1),
        FilterQuery::matching(vec![]).with_prefix(prefix),
        FilterQuery::matching(vec![udp])
            .with_window(span.0, mid)
            .with_prefix(prefix),
    ];
    let pid = |index: &rtbh_core::index::SampleIndex, q: &FilterQuery| {
        q.prefix
            .map(|p| index.prefix_id(p).expect("prefix indexed"))
    };
    let reference: Vec<_> = queries
        .iter()
        .map(|q| {
            let pid = pid(index, q).map(|pid| pid as u32);
            filter_aggregate_naive(analyzer.columns(), pid, q)
        })
        .collect();
    assert!(
        reference[4].samples > 0,
        "the prefix join must select samples — vacuous test"
    );

    let target = target(
        "filter_aggregates_identical_across_chunk_capacities",
        seeds::FUZZ_FILTER_CAPACITY,
    );
    // One case = one corpus preparation; keep the count small and capped.
    let cases: Vec<(usize, usize)> = [64usize, 1024, whole_corpus]
        .iter()
        .flat_map(|&cap| [1usize, 2, 7].map(|w| (cap, w)))
        .collect();
    target.run_capped(cases.len() as u64, cases.len() as u64, |seed, rng| {
        let (capacity, workers) = cases[rng.gen_range(0..cases.len())];
        let mut config = base.with_workers(workers);
        config.chunk_capacity = capacity;
        let prepared = Analyzer::new(corpus.clone(), config);
        for (query, expected) in queries.iter().zip(&reference) {
            let ids = pid(prepared.index(), query).map(|pid| prepared.index().towards(pid));
            assert_eq!(
                &filter_aggregate(prepared.columns(), ids, query),
                expected,
                "aggregate moved at chunk capacity {capacity}, {workers} workers \
                 (case seed {seed:#x}): {query:?}"
            );
            assert_eq!(
                &filter_aggregate_scan(prepared.columns(), ids, query),
                expected,
                "scan aggregate moved at chunk capacity {capacity}, {workers} workers \
                 (case seed {seed:#x}): {query:?}"
            );
        }
    });
}
