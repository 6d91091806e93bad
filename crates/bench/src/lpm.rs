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
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p rtbh-bench --bin pipeline_bench -- index
//! ```

use std::hint::black_box;

use rtbh_net::{FrozenLpm, PrefixTrie};
use rtbh_sim::Corpus;

use crate::{best_of_ns, Bench};

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
    /// BGP updates in the corpus.
    pub updates: usize,
    /// Distinct blackholed prefixes in the LPM structures.
    pub prefixes: usize,
    /// Stride-8 tables the frozen LPM compiled to.
    pub frozen_tables: usize,
    /// Whether trie and frozen LPM answered identically on every sample.
    pub lookups_identical: bool,
    /// Trie lookup timing.
    pub trie: LookupTiming,
    /// Frozen-LPM lookup timing.
    pub frozen: LookupTiming,
    /// Lookup speedup: trie wall / frozen wall.
    pub lookup_speedup: f64,
}

/// Runs the lookup micro-benchmark over `corpus`, `reps` repetitions per
/// structure, keeping the best wall time.
pub fn bench_index(corpus: &Corpus, reps: usize) -> IndexBench {
    let updates = &corpus.updates;
    let samples = corpus.flows.samples();

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
    let trie_wall = best_of_ns(reps, &|| {
        samples
            .iter()
            .filter(|s| {
                trie.longest_match(black_box(s.dst_ip)).is_some()
                    | trie.longest_match(black_box(s.src_ip)).is_some()
            })
            .count()
    });
    let frozen_wall = best_of_ns(reps, &|| {
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
        prefixes: lpm.len(),
        frozen_tables: lpm.table_count(),
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

impl Bench for IndexBench {
    fn summary(&self) -> String {
        let mut out = format!(
            "LPM lookups ({} prefixes, {} stride-8 tables):\n",
            self.prefixes, self.frozen_tables
        );
        for t in [&self.trie, &self.frozen] {
            out += &format!(
                "  {:<8} {:>10.1} ns/lookup  ({} lookups)\n",
                t.structure, t.ns_per_lookup, t.lookups
            );
        }
        out + &format!(
            "  frozen speedup: {:.2}x   answers identical: {}",
            self.lookup_speedup, self.lookups_identical
        )
    }

    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.lookups_identical {
            failures.push("trie and frozen LPM answers diverged".to_string());
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_index_cross_checks_and_serializes() {
        let corpus = crate::tiny_corpus();
        let bench = bench_index(corpus, 1);
        assert!(bench.lookups_identical);
        assert!(bench.failures().is_empty());
        assert!(bench.prefixes > 0);
        assert!(bench.frozen_tables > 0);
        assert_eq!(bench.trie.lookups, corpus.flows.len() * 2);
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
        updates, prefixes, frozen_tables, lookups_identical, trie, frozen, lookup_speedup,
    }
}
