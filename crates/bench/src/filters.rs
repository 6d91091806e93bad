//! The predicate-pushdown micro-benchmark behind `BENCH_filters.json`.
//!
//! Three implementations of the same query set — representative
//! port/protocol/length/flag conjunctions (the paper's §6 UDP
//! amplification mitigation shape), windowed scans and one per-prefix
//! join — are timed on one simulated corpus, on one thread:
//!
//! 1. **naive**: the rowwise reference — per-row timestamp/prefix/
//!    predicate branches over the sealed chunks, no masks, no pruning;
//! 2. **masked**: the autovectorized kernels
//!    ([`rtbh_core::filter::filter_aggregate_scan`]) — per-64-row
//!    selection-mask words from branch-free compare loops, flag columns
//!    fused by single ANDs, popcount/set-bit-walk aggregation — but every
//!    chunk scanned (isolates what masking alone buys);
//! 3. **masked_pruned**: the shipped kernel
//!    ([`rtbh_core::filter::filter_aggregate`]) — the same masks
//!    behind chunk pruning on each chunk's first and last timestamps,
//!    and per-prefix joins scattered from the sample index's sorted id
//!    lists ([`rtbh_core::index::SampleIndex::towards`]) instead of
//!    masking the `dst_pid` column.
//!
//! Every variant's answers are byte-checked (serialized JSON compared)
//! against the naive reference before anything is timed — a
//! fast-but-wrong kernel fails the bench, it does not win it.
//!
//! The headline `masked_speedup` (naive wall / masked wall at one worker)
//! is held to [`MASKED_SPEEDUP_FLOOR`]: `pipeline_bench` exits 1 if it
//! falls below it.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p rtbh-bench --bin pipeline_bench -- filters
//! ```

use rtbh_core::filter::{
    filter_aggregate, filter_aggregate_naive, filter_aggregate_scan, FilterAggregate, FilterQuery,
    Predicate,
};
use rtbh_core::index::SampleIndex;
use rtbh_core::pipeline::{Analyzer, AnalyzerConfig};
use rtbh_sim::Corpus;

use crate::{best_of_ns, Bench};

/// The least `masked_speedup` a run may show. The kernels sit around 7-10x
/// on the tiny corpus, so 4x only trips on a real regression: a lost
/// autovectorization, a mask rebuilt per row.
pub const MASKED_SPEEDUP_FLOOR: f64 = 4.0;

/// Best-of-reps timing of one filter variant.
#[derive(Debug, Clone)]
pub struct FilterTiming {
    /// Query variant: `"naive"`, `"masked"` or `"masked_pruned"`.
    pub variant: &'static str,
    /// Worker threads the scan ran on (always 1: the drivers are
    /// single-threaded).
    pub workers: usize,
    /// Best (lowest) wall time of one pass over the whole query set, in
    /// nanoseconds.
    pub best_wall_ns: u64,
    /// Rows scanned per second in the best repetition (samples × queries
    /// over the wall time).
    pub rows_per_sec: f64,
    /// Speedup over the naive rowwise walk.
    pub speedup_vs_naive: f64,
}

/// The machine-readable result of one predicate-pushdown benchmark run
/// (the content of `BENCH_filters.json`).
#[derive(Debug, Clone)]
pub struct FiltersBench {
    /// The benched queries, in the CLI grammar.
    pub queries: Vec<String>,
    /// Whether every variant matched the naive reference byte-for-byte
    /// (checked before timing).
    pub answers_identical: bool,
    /// One timing per variant.
    pub timings: Vec<FilterTiming>,
    /// Headline: naive wall / masked wall.
    pub masked_speedup: f64,
    /// Naive wall / masked+pruned wall.
    pub pruned_speedup: f64,
}

/// One benched query: the filter plus its resolved prefix id (the serve
/// layer resolves prefixes before the kernels run).
struct BenchQuery {
    query: FilterQuery,
    pid: Option<u32>,
}

/// The benched query set: the paper's amplification-port shapes, length
/// and flag conjuncts, windowed scans and one per-prefix join.
fn bench_queries(index: &SampleIndex, start_ms: i64, end_ms: i64) -> Vec<BenchQuery> {
    let p = |text: &str| Predicate::parse(text).expect("static predicate");
    let span = end_ms - start_ms;
    let mut queries = vec![
        // The §6 mitigation shape: fixed UDP amplification ports.
        FilterQuery::matching(vec![p("protocol=17"), p("dst_port=53")]),
        FilterQuery::matching(vec![p("protocol=17"), p("src_port=123")]),
        // Length and flag conjuncts.
        FilterQuery::matching(vec![p("packet_len>=700")]),
        FilterQuery::matching(vec![p("fragment=1"), p("dropped=1")]),
        FilterQuery::matching(vec![p("src_port<1024"), p("protocol=17")]),
        // Windowed scans: a third of the corpus, and a narrow slice the
        // chunk-header pruning can skip most chunks for.
        FilterQuery::matching(vec![p("protocol=17")])
            .with_window(start_ms + span / 3, start_ms + 2 * span / 3),
        FilterQuery::matching(Vec::new()).with_window(start_ms, start_ms + span / 16),
    ];
    let mut out: Vec<BenchQuery> = queries
        .drain(..)
        .map(|query| BenchQuery { query, pid: None })
        .collect();
    // One per-prefix join (index id list vs a dst_pid column walk).
    if !index.prefixes().is_empty() {
        out.push(BenchQuery {
            query: FilterQuery::matching(vec![p("dropped=1")]).with_prefix(index.prefixes()[0]),
            pid: Some(0),
        });
    }
    out
}

/// Times the three filter variants over the query set on `corpus`, `reps`
/// repetitions each, keeping the best wall time per variant.
pub fn bench_filters(corpus: &Corpus, reps: usize) -> FiltersBench {
    let analyzer = Analyzer::new(corpus.clone(), AnalyzerConfig::for_corpus(corpus));
    let cols = analyzer.columns();
    let index = analyzer.index();
    let period = analyzer.corpus().period;
    let queries = bench_queries(index, period.start.as_millis(), period.end.as_millis());

    let join = |q: &BenchQuery| q.pid.map(|pid| index.towards(pid as usize));
    let naive = |q: &BenchQuery| filter_aggregate_naive(cols, q.pid, &q.query);
    let masked = |q: &BenchQuery| filter_aggregate_scan(cols, join(q), &q.query);
    let pruned = |q: &BenchQuery| filter_aggregate(cols, join(q), &q.query);

    // Byte-check before timing: every variant serializes identically to
    // the naive reference.
    let answers_identical = queries.iter().all(|q| {
        let expected = rtbh_json::to_vec_pretty(&naive(q));
        rtbh_json::to_vec_pretty(&masked(q)) == expected
            && rtbh_json::to_vec_pretty(&pruned(q)) == expected
    });

    // One pass = the whole query set, merged (the merge is free next to
    // the scans and keeps every answer live for `black_box`).
    let time_best = |eval: &dyn Fn(&BenchQuery) -> FilterAggregate| -> u64 {
        best_of_ns(reps, &|| {
            let mut total = FilterAggregate::default();
            for q in &queries {
                total.merge(&eval(q));
            }
            total
        })
    };

    let rows = (cols.len() * queries.len()) as f64;
    let naive_wall = time_best(&naive);
    let masked_wall = time_best(&masked);
    let pruned_wall = time_best(&pruned);
    let timings = [
        ("naive", naive_wall),
        ("masked", masked_wall),
        ("masked_pruned", pruned_wall),
    ]
    .into_iter()
    .map(|(variant, wall)| FilterTiming {
        variant,
        workers: 1,
        best_wall_ns: wall,
        rows_per_sec: rows / (wall.max(1) as f64 / 1e9),
        speedup_vs_naive: naive_wall as f64 / wall.max(1) as f64,
    })
    .collect();

    FiltersBench {
        queries: queries
            .iter()
            .map(|q| {
                let mut text: Vec<String> =
                    q.query.predicates.iter().map(|p| p.to_string()).collect();
                if let Some(prefix) = q.query.prefix {
                    text.insert(0, format!("--prefix {prefix}"));
                }
                if q.query.start_ms != i64::MIN || q.query.end_ms != i64::MAX {
                    text.insert(
                        0,
                        format!("--window {} {}", q.query.start_ms, q.query.end_ms),
                    );
                }
                text.join(" ")
            })
            .collect(),
        answers_identical,
        timings,
        masked_speedup: naive_wall as f64 / masked_wall.max(1) as f64,
        pruned_speedup: naive_wall as f64 / pruned_wall.max(1) as f64,
    }
}

impl Bench for FiltersBench {
    fn summary(&self) -> String {
        let mut out = format!("filter kernels: {} queries:\n", self.queries.len());
        for t in &self.timings {
            out += &format!(
                "  {:<13} {:>3} worker(s): {:>8.2} ms  {:>12.0} rows/s  {:.2}x vs naive\n",
                t.variant,
                t.workers,
                t.best_wall_ns as f64 / 1e6,
                t.rows_per_sec,
                t.speedup_vs_naive
            );
        }
        out + &format!(
            "  masked speedup vs naive (1 worker): {:.2}x (floor {MASKED_SPEEDUP_FLOOR:.2}x)  \
             (pruned: {:.2}x)  answers identical: {}",
            self.masked_speedup, self.pruned_speedup, self.answers_identical
        )
    }

    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.answers_identical {
            failures.push("filter kernel answers diverged from the naive reference".to_string());
        }
        if self.masked_speedup < MASKED_SPEEDUP_FLOOR {
            failures.push(format!(
                "masked-filter speedup {:.2}x is below the {MASKED_SPEEDUP_FLOOR:.2}x floor",
                self.masked_speedup
            ));
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_filters_cross_checks_and_serializes() {
        let bench = bench_filters(crate::tiny_corpus(), 1);
        assert!(bench.answers_identical);
        assert!(bench.queries.len() >= 7);
        assert_eq!(bench.timings.len(), 3);
        assert!(bench.timings.iter().all(|t| t.workers == 1));
        assert!((bench.timings[0].speedup_vs_naive - 1.0).abs() < 1e-12);
        // The result must serialize (it is written verbatim to
        // BENCH_filters.json).
        rtbh_json::to_string(&bench);
    }

    #[test]
    fn a_slow_or_divergent_record_fails() {
        let mut bench = FiltersBench {
            queries: vec!["protocol=17".to_string()],
            answers_identical: true,
            timings: Vec::new(),
            masked_speedup: MASKED_SPEEDUP_FLOOR * 2.0,
            pruned_speedup: MASKED_SPEEDUP_FLOOR * 3.0,
        };
        assert!(bench.failures().is_empty());

        let mut slow = bench.clone();
        slow.masked_speedup = MASKED_SPEEDUP_FLOOR - 0.01;
        let failures = slow.failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("4.00x floor"), "{failures:?}");

        bench.answers_identical = false;
        assert_eq!(
            bench.failures(),
            ["filter kernel answers diverged from the naive reference"]
        );
    }
}

rtbh_json::impl_json! {
    serialize struct FilterTiming { variant, workers, best_wall_ns, rows_per_sec, speedup_vs_naive }
}

rtbh_json::impl_json! {
    serialize struct FiltersBench {
        queries, answers_identical, timings, masked_speedup, pruned_speedup,
    }
}
