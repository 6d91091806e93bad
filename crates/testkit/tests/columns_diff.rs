//! Differential fuzz for the sealed-chunk columnar store.
//!
//! Three suites pin the sealed-chunk ABI (`docs/CHUNK_ABI.md`) against
//! independent oracles:
//!
//! 1. **bitset columns vs the old flags byte**: on randomized simulated
//!    corpora, the per-flag bitset columns (fragment/dropped/active) must
//!    agree bit-for-bit with a per-sample recomputation of the packed
//!    flags byte the pre-seal layout stored — fragment and drop straight
//!    from the sample, activity via a from-scratch LPM walk plus interval
//!    binary search. Whole-word popcounts must equal rowwise counts (the
//!    tail-bits-zero invariant).
//! 2. **gallop vs binary-search window joins**: `gallop_partition_point`
//!    must equal `partition_point` on randomized sorted id lists for
//!    every resume point and bound, including adversarial runs of equal
//!    ids and bounds outside the list.
//! 3. **chunk capacity identity**: full pipeline reports at chunk
//!    capacities 64, 1024 and whole-corpus must be byte-identical to the
//!    default-capacity reference at several worker counts — chunk
//!    boundaries must never move report bytes.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_bgp::blackhole_intervals;
use rtbh_core::columns::{gallop_partition_point, ColumnarFlows};
use rtbh_core::index::{MacResolver, OriginTable};
use rtbh_core::pipeline::AnalyzerConfig;
use rtbh_core::Analyzer;
use rtbh_fabric::FlowSample;
use rtbh_net::{FrozenLpm, Interval};
use rtbh_rng::Rng;
use rtbh_sim::ScenarioConfig;
use rtbh_testkit::FuzzTarget;

/// The pre-seal layout's packed flags byte, recomputed from scratch for
/// one sample: bit 0 fragment, bit 1 dropped, bit 2 active.
fn oracle_flags(s: &FlowSample, activity: &FrozenLpm<Vec<Interval>>) -> u8 {
    let mut flags = 0u8;
    if s.fragment {
        flags |= 1;
    }
    if s.is_dropped() {
        flags |= 2;
    }
    let active = activity.longest_match(s.dst_ip).is_some_and(|(_, ivs)| {
        let idx = ivs.partition_point(|iv| iv.start <= s.at);
        idx > 0 && ivs[idx - 1].contains(s.at)
    });
    if active {
        flags |= 4;
    }
    flags
}

#[test]
fn bitset_columns_match_recomputed_flags_byte() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "columns_diff",
        test_name: "bitset_columns_match_recomputed_flags_byte",
        base_seed: seeds::FUZZ_COLUMNS_BITSET,
    };
    // One case simulates and seals a whole corpus, so deep runs are capped
    // like every other corpus-per-case target.
    target.run_capped(8, 64, |_seed, rng| {
        let mut config = ScenarioConfig::tiny();
        config.seed = rng.next_u64();
        let corpus = rtbh_sim::run(&config).corpus;
        let capacity = [0usize, 64, 256, 1024][rng.gen_range(0..4usize)];
        let workers = rng.gen_range(1..=4usize);
        let cols = ColumnarFlows::build_enriched_with_capacity(
            &corpus.updates,
            &corpus.flows,
            &MacResolver::build(&corpus),
            &OriginTable::build(&corpus.routes),
            corpus.period.end,
            workers,
            capacity,
        )
        .columns;
        let activity: FrozenLpm<Vec<Interval>> = FrozenLpm::from_entries(blackhole_intervals(
            corpus.updates.updates().iter(),
            corpus.period.end,
        ));
        let samples = corpus.flows.samples();
        assert_eq!(cols.len(), samples.len());
        for (i, s) in samples.iter().enumerate() {
            let flags = oracle_flags(s, &activity);
            assert_eq!(cols.fragment(i), flags & 1 != 0, "fragment bit, sample {i}");
            assert_eq!(
                cols.is_dropped(i),
                flags & 2 != 0,
                "dropped bit, sample {i}"
            );
            let active = cols.active_prefix(i).is_some_and(|(_, a)| a);
            assert_eq!(active, flags & 4 != 0, "active bit, sample {i}");
        }
        // Word-level contract: whole-word popcounts equal rowwise counts,
        // which requires the tail bits of every last word to be zero.
        for c in cols.chunks() {
            for (words, rowwise) in [
                (
                    c.fragment_words(),
                    &(|r: usize| c.fragment(r)) as &dyn Fn(usize) -> bool,
                ),
                (c.dropped_words(), &|r: usize| c.dropped(r)),
                (c.active_words(), &|r: usize| c.active(r)),
            ] {
                let popcount: u32 = words.iter().map(|w| w.count_ones()).sum();
                let counted = (0..c.len()).filter(|&r| rowwise(r)).count() as u32;
                assert_eq!(
                    popcount,
                    counted,
                    "popcount vs rowwise at chunk {}",
                    c.start()
                );
            }
        }
    });
}

#[test]
fn gallop_join_matches_binary_search_join() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "columns_diff",
        test_name: "gallop_join_matches_binary_search_join",
        base_seed: seeds::FUZZ_COLUMNS_GALLOP,
    };
    target.run(200, |_seed, rng| {
        let n = rng.gen_range(0..400usize);
        // Mix of dense runs (repeat-heavy before dedup) and sparse ids.
        let spread = *[8u64, 100, 1 << 20].get(rng.gen_range(0..3usize)).unwrap();
        let mut ids: Vec<u32> = (0..n).map(|_| (rng.next_u64() % spread) as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        for _ in 0..32 {
            let from = rng.gen_range(0..=ids.len());
            let bound = (rng.next_u64() % (spread + 2)) as u32;
            assert_eq!(
                gallop_partition_point(&ids, from, bound),
                from + ids[from..].partition_point(|&x| x < bound),
                "n {} from {from} bound {bound}",
                ids.len()
            );
        }
    });
}

#[test]
fn reports_identical_across_chunk_capacities() {
    let mut config = ScenarioConfig::tiny();
    config.visible_attack_events = 3;
    config.constant_events = 1;
    config.invisible_events = 1;
    let corpus = rtbh_sim::run(&config).corpus;
    let samples = corpus.flows.len();

    let base = AnalyzerConfig::for_corpus(&corpus);
    let reference = rtbh_json::to_string(&Analyzer::new(corpus.clone(), base).full());

    let whole_corpus = samples.next_power_of_two().max(64);
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "columns_diff",
        test_name: "reports_identical_across_chunk_capacities",
        base_seed: seeds::FUZZ_CHUNK_CAPACITY,
    };
    // One case = one full pipeline run; keep the count small and capped.
    let cases: Vec<(usize, usize)> = [64usize, 1024, whole_corpus]
        .iter()
        .flat_map(|&cap| [1usize, 2, 7].map(|w| (cap, w)))
        .collect();
    target.run_capped(cases.len() as u64, cases.len() as u64, |seed, rng| {
        let (capacity, workers) = cases[rng.gen_range(0..cases.len())];
        let mut config = base.with_workers(workers);
        config.chunk_capacity = capacity;
        let report = rtbh_json::to_string(&Analyzer::new(corpus.clone(), config).full());
        assert_eq!(
            report, reference,
            "report bytes moved at chunk capacity {capacity}, {workers} workers \
             (case seed {seed:#x})"
        );
    });
}
