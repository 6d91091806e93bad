//! The LPM micro-benchmark behind `BENCH_index.json`.
//!
//! How much faster is the frozen stride-8 LPM table ([`FrozenLpm`]) than
//! the pointer-chasing [`PrefixTrie`] it is compiled from, on the
//! pipeline's real lookup mix (two longest-prefix lookups per flow
//! sample)? Both structures are probed with identical inputs and their
//! answers are cross-checked on every sample first — a fast-but-wrong
//! table would fail the bench, not win it.
//!
//! The production index build (`SampleIndex::from_columns`) is timed at one
//! worker and at all cores by the `prepare:index` rows of
//! `BENCH_pipeline.json`.
//!
//! Regenerate with `scripts/bench_pipeline.sh` or directly:
//!
//! ```text
//! cargo run --release -p rtbh-bench --bin pipeline_bench -- --scale 0.25 --reps 3
//! ```

use std::hint::black_box;
use std::time::Instant;

use rtbh_net::{FrozenLpm, PrefixTrie};
use rtbh_sim::ScenarioConfig;

/// Best-of-reps timing of one lookup structure over the full sample scan.
#[derive(Debug, Clone)]
pub struct LookupTiming {
    /// Structure probed: `"trie"` or `"frozen"`.
    pub structure: &'static str,
    /// Longest-prefix lookups per repetition (two per flow sample).
    pub lookups: usize,
    /// Best (lowest) wall time of one repetition, in nanoseconds.
    pub best_wall_ns: u64,
    /// Nanoseconds per lookup in the best repetition.
    pub ns_per_lookup: f64,
}

/// The machine-readable result of one index micro-benchmark run
/// (the content of `BENCH_index.json`).
#[derive(Debug, Clone)]
pub struct IndexBench {
    /// The scenario that generated the corpus.
    pub scenario: ScenarioConfig,
    /// BGP updates in the corpus.
    pub updates: usize,
    /// Flow samples scanned per repetition.
    pub samples: usize,
    /// Distinct blackholed prefixes in the LPM structures.
    pub prefixes: usize,
    /// Stride-8 tables the frozen LPM compiled to.
    pub frozen_tables: usize,
    /// Timing repetitions (the best run is reported).
    pub reps: usize,
    /// Whether trie and frozen LPM answered identically on every sample.
    pub lookups_identical: bool,
    /// Trie lookup timing.
    pub trie: LookupTiming,
    /// Frozen-LPM lookup timing.
    pub frozen: LookupTiming,
    /// Lookup speedup: trie wall / frozen wall.
    pub lookup_speedup: f64,
}

/// Simulates `config` and runs the lookup micro-benchmark, `reps`
/// repetitions per structure, keeping the best wall time.
pub fn bench_index(config: ScenarioConfig, reps: usize) -> IndexBench {
    let reps = reps.max(1);
    let out = rtbh_sim::run(&config);
    let updates = &out.corpus.updates;
    let samples = out.corpus.flows.samples();

    // The same dedup the real index build performs.
    let mut trie = PrefixTrie::new();
    let mut next_id = 0usize;
    for u in updates.blackholes() {
        if trie.get(u.prefix).is_none() {
            trie.insert(u.prefix, next_id);
            next_id += 1;
        }
    }
    let lpm = FrozenLpm::from_trie(&trie);

    // Cross-check before timing: identical answers on the real lookup mix.
    let lookups_identical = samples.iter().all(|s| {
        trie.longest_match(s.dst_ip) == lpm.longest_match(s.dst_ip)
            && trie.longest_match(s.src_ip) == lpm.longest_match(s.src_ip)
    });

    let lookups = samples.len() * 2;
    let time_lookups = |probe: &dyn Fn() -> usize| -> u64 {
        let mut best = u64::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            black_box(probe());
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        best
    };
    let trie_wall = time_lookups(&|| {
        samples
            .iter()
            .filter(|s| {
                trie.longest_match(black_box(s.dst_ip)).is_some()
                    | trie.longest_match(black_box(s.src_ip)).is_some()
            })
            .count()
    });
    let frozen_wall = time_lookups(&|| {
        samples
            .iter()
            .filter(|s| {
                lpm.longest_match(black_box(s.dst_ip)).is_some()
                    | lpm.longest_match(black_box(s.src_ip)).is_some()
            })
            .count()
    });
    let per_lookup = |wall: u64| wall as f64 / lookups.max(1) as f64;

    IndexBench {
        updates: updates.len(),
        samples: samples.len(),
        prefixes: lpm.len(),
        frozen_tables: lpm.table_count(),
        scenario: config,
        reps,
        lookups_identical,
        trie: LookupTiming {
            structure: "trie",
            lookups,
            best_wall_ns: trie_wall,
            ns_per_lookup: per_lookup(trie_wall),
        },
        frozen: LookupTiming {
            structure: "frozen",
            lookups,
            best_wall_ns: frozen_wall,
            ns_per_lookup: per_lookup(frozen_wall),
        },
        lookup_speedup: trie_wall as f64 / frozen_wall.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_index_cross_checks_and_serializes() {
        let bench = bench_index(ScenarioConfig::tiny(), 1);
        assert!(bench.lookups_identical);
        assert!(bench.prefixes > 0);
        assert!(bench.frozen_tables > 0);
        assert_eq!(bench.trie.lookups, bench.samples * 2);
        // The result must serialize (it is written verbatim to
        // BENCH_index.json).
        rtbh_json::to_string(&bench);
    }
}

rtbh_json::impl_json! {
    serialize struct LookupTiming { structure, lookups, best_wall_ns, ns_per_lookup }
}

rtbh_json::impl_json! {
    serialize struct IndexBench {
        scenario, updates, samples, prefixes, frozen_tables, reps,
        lookups_identical, trie, frozen, lookup_speedup,
    }
}
