//! The flow-store micro-benchmark behind `BENCH_flows.json`.
//!
//! Three implementations of the same representative stage kernel — drop
//! provenance (count dropped packets/bytes and the subset explained by an
//! active route-server blackhole) — are timed on one simulated corpus at
//! one worker, the only configuration the shipped kernel has:
//!
//! 1. **aos**: the pre-columnar baseline — scan the array-of-structs
//!    [`rtbh_fabric::FlowSample`] log and, per dropped sample, do an LPM
//!    lookup plus a binary search over the blackhole activity intervals;
//! 2. **columnar**: the same per-sample lookups, but reading the
//!    structure-of-arrays [`ColumnarFlows`] base columns (layout change
//!    only);
//! 3. **enriched**: the shipped kernel
//!    ([`rtbh_core::load::drop_provenance`]) — the activity check was
//!    precomputed once by the enrichment pass, so the scan touches only
//!    the flags and packet-length columns.
//!
//! All variants are cross-checked for identical answers before anything
//! is timed — a fast-but-wrong kernel fails the bench, it does not win
//! it. The one-time enrichment cost is reported alongside (it is paid
//! once and amortized over every stage that consumes the columns, not per
//! kernel).
//!
//! Two further **micro-benches** isolate the sealed-chunk kernels the
//! enriched scan is built from:
//!
//! * **bitset**: popcount over whole `dropped`/`dropped & active` flag
//!   words vs the same counts via rowwise per-sample bit tests;
//! * **gallop**: window × sorted-id joins via
//!   [`rtbh_core::columns::gallop_partition_point`] vs full-width binary
//!   searches over the id list.
//!
//! The headline `enriched_speedup` is held to [`ENRICHED_SPEEDUP_FLOOR`]:
//! `pipeline_bench` exits 1 if it falls below it.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p rtbh-bench --bin pipeline_bench -- flows
//! ```

use std::hint::black_box;
use std::time::Instant;

use rtbh_bgp::blackhole_intervals;
use rtbh_core::columns::ColumnarFlows;
use rtbh_core::index::{MacResolver, OriginTable};
use rtbh_core::load::{drop_provenance, DropProvenance};
use rtbh_core::shard;
use rtbh_fabric::FlowSample;
use rtbh_net::{FrozenLpm, Interval, Ipv4Addr, Timestamp};
use rtbh_sim::Corpus;

use crate::{best_of_ns, Bench};

/// The least `enriched_speedup` a run may show. The kernel sits well above
/// 20x, so 5x only trips on a real regression, even on the tiny corpus
/// (where CI takes the best of 3 reps to keep the timing out of the noise).
pub const ENRICHED_SPEEDUP_FLOOR: f64 = 5.0;

/// Best-of-reps timing of one kernel variant.
#[derive(Debug, Clone)]
pub struct VariantTiming {
    /// Kernel variant: `"aos"`, `"columnar"` or `"enriched"`.
    pub variant: &'static str,
    /// Worker threads the scan ran on (always one).
    pub workers: usize,
    /// Best (lowest) wall time of one repetition, in nanoseconds.
    pub best_wall_ns: u64,
    /// Flow samples scanned per second in the best repetition.
    pub samples_per_sec: f64,
    /// Speedup over the AoS baseline.
    pub speedup_vs_aos: f64,
}

/// One isolated kernel-vs-baseline comparison (best-of-reps, one worker).
#[derive(Debug, Clone)]
pub struct MicroBench {
    /// The sealed-chunk kernel being isolated.
    pub kernel: &'static str,
    /// The scalar baseline it replaces.
    pub baseline: &'static str,
    /// Best kernel wall time, in nanoseconds.
    pub kernel_wall_ns: u64,
    /// Best baseline wall time, in nanoseconds.
    pub baseline_wall_ns: u64,
    /// Baseline wall / kernel wall.
    pub speedup: f64,
    /// Whether kernel and baseline produced identical answers (checked
    /// before timing).
    pub answers_identical: bool,
}

/// The machine-readable result of one flow-store micro-benchmark run
/// (the content of `BENCH_flows.json`).
#[derive(Debug, Clone)]
pub struct FlowsBench {
    /// Dropped samples among the flow samples scanned.
    pub dropped: usize,
    /// Whether every variant agreed (micro-bench cross-checks included).
    pub answers_identical: bool,
    /// One-time cost of `ColumnarFlows::build_enriched_with_capacity` at
    /// all cores, in nanoseconds (amortized over every stage, not per
    /// kernel).
    pub enrich_wall_ns: u64,
    /// One timing per variant.
    pub timings: Vec<VariantTiming>,
    /// Headline: AoS wall / enriched wall.
    pub enriched_speedup: f64,
    /// Popcount-over-flag-words kernel vs rowwise bit tests.
    pub bitset: MicroBench,
    /// Gallop window × id-list joins vs full-width binary searches.
    pub gallop: MicroBench,
}

fn empty_provenance() -> DropProvenance {
    DropProvenance {
        dropped_packets: 0,
        dropped_bytes: 0,
        explained_packets: 0,
        explained_bytes: 0,
    }
}

fn explained(lpm: &FrozenLpm<Vec<Interval>>, dst: Ipv4Addr, at: Timestamp) -> bool {
    lpm.longest_match(dst).is_some_and(|(_, ivs)| {
        let idx = ivs.partition_point(|iv| iv.start <= at);
        idx > 0 && ivs[idx - 1].contains(at)
    })
}

/// The pre-columnar baseline: AoS scan with per-sample LPM + interval
/// lookups.
fn aos_scan(samples: &[FlowSample], lpm: &FrozenLpm<Vec<Interval>>) -> DropProvenance {
    let mut p = empty_provenance();
    for s in samples.iter().filter(|s| s.is_dropped()) {
        p.dropped_packets += 1;
        p.dropped_bytes += s.packet_len as u64;
        if explained(lpm, s.dst_ip, s.at) {
            p.explained_packets += 1;
            p.explained_bytes += s.packet_len as u64;
        }
    }
    p
}

/// The layout-only variant: SoA base columns, same per-sample lookups.
fn columnar_scan(cols: &ColumnarFlows, lpm: &FrozenLpm<Vec<Interval>>) -> DropProvenance {
    let mut p = empty_provenance();
    for c in cols.chunks() {
        for r in (0..c.len()).filter(|&r| c.dropped(r)) {
            let i = c.start() + r;
            p.dropped_packets += 1;
            p.dropped_bytes += cols.packet_len(i) as u64;
            if explained(lpm, cols.dst_ip(i), cols.at(i)) {
                p.explained_packets += 1;
                p.explained_bytes += cols.packet_len(i) as u64;
            }
        }
    }
    p
}

/// Bitset micro-bench: dropped/explained *packet counts* (the pure bitset
/// part of the provenance kernel) as whole-word popcounts vs rowwise bit
/// tests over the same sealed chunks.
fn bench_bitset(cols: &ColumnarFlows, reps: usize) -> MicroBench {
    let popcount = || -> (u64, u64) {
        let mut dropped = 0u64;
        let mut explained = 0u64;
        for c in cols.chunks() {
            for (&d, &a) in c.dropped_words().iter().zip(c.active_words()) {
                dropped += u64::from(d.count_ones());
                explained += u64::from((d & a).count_ones());
            }
        }
        (dropped, explained)
    };
    let rowwise = || -> (u64, u64) {
        let mut dropped = 0u64;
        let mut explained = 0u64;
        for c in cols.chunks() {
            for r in 0..c.len() {
                if c.dropped(r) {
                    dropped += 1;
                    if c.active(r) {
                        explained += 1;
                    }
                }
            }
        }
        (dropped, explained)
    };
    let answers_identical = popcount() == rowwise();
    let kernel_wall_ns = best_of_ns(reps, &popcount);
    let baseline_wall_ns = best_of_ns(reps, &rowwise);
    MicroBench {
        kernel: "bitset_popcount",
        baseline: "rowwise_bits",
        kernel_wall_ns,
        baseline_wall_ns,
        speedup: baseline_wall_ns as f64 / kernel_wall_ns.max(1) as f64,
        answers_identical,
    }
}

/// Gallop micro-bench: join a sliding time window against the sorted
/// dropped-sample id list (an index `towards`-list shape) by galloping
/// from the previous bound vs a full-width binary search per window.
fn bench_gallop(cols: &ColumnarFlows, reps: usize) -> MicroBench {
    use rtbh_core::columns::gallop_partition_point;
    let ids: Vec<u32> = (0..cols.len() as u32)
        .filter(|&i| cols.is_dropped(i as usize))
        .collect();
    // Sliding windows over the corpus: many short windows, resolved in
    // time order — the shape collateral/filtering queries take.
    let n = cols.len();
    let windows: Vec<(usize, usize)> = (0..512)
        .map(|k| {
            let lo = n * k / 512;
            (lo, (lo + n / 64).min(n))
        })
        .collect();
    let galloping = || -> u64 {
        let mut total = 0u64;
        let mut cursor = 0usize;
        for &(glo, ghi) in &windows {
            let lo = gallop_partition_point(&ids, cursor, glo as u32);
            let hi = gallop_partition_point(&ids, lo, ghi as u32);
            cursor = lo;
            total += (hi - lo) as u64;
        }
        total
    };
    let binary = || -> u64 {
        let mut total = 0u64;
        for &(glo, ghi) in &windows {
            let lo = ids.partition_point(|&i| (i as usize) < glo);
            let hi = ids.partition_point(|&i| (i as usize) < ghi);
            total += (hi - lo) as u64;
        }
        total
    };
    let answers_identical = galloping() == binary();
    let kernel_wall_ns = best_of_ns(reps, &galloping);
    let baseline_wall_ns = best_of_ns(reps, &binary);
    MicroBench {
        kernel: "gallop_join",
        baseline: "binary_search_join",
        kernel_wall_ns,
        baseline_wall_ns,
        speedup: baseline_wall_ns as f64 / kernel_wall_ns.max(1) as f64,
        answers_identical,
    }
}

/// Times the three kernel variants over `corpus`, `reps` repetitions each
/// at one worker, keeping the best wall time per variant.
pub fn bench_flows(corpus: &Corpus, reps: usize) -> FlowsBench {
    let samples = corpus.flows.samples();

    // The activity structure the AoS/columnar variants look up per sample.
    let intervals = blackhole_intervals(corpus.updates.updates().iter(), corpus.period.end);
    let lpm: FrozenLpm<Vec<Interval>> = FrozenLpm::from_entries(intervals);

    let resolver = MacResolver::build(corpus);
    let origins = OriginTable::build(&corpus.routes);

    // One-time enrichment cost at all cores (best of reps).
    let mut enrich_wall_ns = u64::MAX;
    let mut built = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let b = black_box(ColumnarFlows::build_enriched_with_capacity(
            &corpus.updates,
            &corpus.flows,
            &resolver,
            &origins,
            corpus.period.end,
            shard::resolve_workers(0),
            0,
        ));
        enrich_wall_ns = enrich_wall_ns.min(t0.elapsed().as_nanos() as u64);
        built = Some(b);
    }
    let cols = built.expect("reps >= 1").columns;

    // Cross-check before timing: identical answers everywhere.
    let reference = aos_scan(samples, &lpm);
    let scans_identical =
        columnar_scan(&cols, &lpm) == reference && drop_provenance(&cols) == reference;

    let bitset = bench_bitset(&cols, reps);
    let gallop = bench_gallop(&cols, reps);
    let answers_identical = scans_identical && bitset.answers_identical && gallop.answers_identical;

    let aos_wall = best_of_ns(reps, &|| aos_scan(samples, &lpm));
    let columnar_wall = best_of_ns(reps, &|| columnar_scan(&cols, &lpm));
    let enriched_wall = best_of_ns(reps, &|| drop_provenance(&cols));
    let timings = [
        ("aos", aos_wall),
        ("columnar", columnar_wall),
        ("enriched", enriched_wall),
    ]
    .into_iter()
    .map(|(variant, wall)| VariantTiming {
        variant,
        workers: 1,
        best_wall_ns: wall,
        samples_per_sec: samples.len() as f64 / (wall.max(1) as f64 / 1e9),
        speedup_vs_aos: aos_wall as f64 / wall.max(1) as f64,
    })
    .collect();

    FlowsBench {
        dropped: reference.dropped_packets as usize,
        answers_identical,
        enrich_wall_ns,
        timings,
        enriched_speedup: aos_wall as f64 / enriched_wall.max(1) as f64,
        bitset,
        gallop,
    }
}

impl Bench for FlowsBench {
    fn summary(&self) -> String {
        let mut out = format!(
            "flow-store kernel scans ({} dropped samples, enrich {:.2} ms once):\n",
            self.dropped,
            self.enrich_wall_ns as f64 / 1e6
        );
        for t in &self.timings {
            out += &format!(
                "  {:<9} {:>3} worker(s): {:>8.2} ms  {:>12.0} samples/s  {:.2}x vs aos\n",
                t.variant,
                t.workers,
                t.best_wall_ns as f64 / 1e6,
                t.samples_per_sec,
                t.speedup_vs_aos
            );
        }
        for m in [&self.bitset, &self.gallop] {
            out += &format!(
                "  {:<18} vs {:<18}: {:>8.3} ms vs {:>8.3} ms  {:.2}x\n",
                m.kernel,
                m.baseline,
                m.kernel_wall_ns as f64 / 1e6,
                m.baseline_wall_ns as f64 / 1e6,
                m.speedup
            );
        }
        out + &format!(
            "  enriched speedup vs aos (1 worker): {:.2}x (floor {ENRICHED_SPEEDUP_FLOOR:.2}x)   \
             answers identical: {}",
            self.enriched_speedup, self.answers_identical
        )
    }

    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.answers_identical {
            failures.push("flow-store kernel variants diverged".to_string());
        }
        if self.enriched_speedup < ENRICHED_SPEEDUP_FLOOR {
            failures.push(format!(
                "enriched-kernel speedup {:.2}x is below the {ENRICHED_SPEEDUP_FLOOR:.2}x floor",
                self.enriched_speedup
            ));
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_flows_cross_checks_and_serializes() {
        let bench = bench_flows(crate::tiny_corpus(), 1);
        assert!(bench.answers_identical);
        assert!(bench.bitset.answers_identical);
        assert!(bench.gallop.answers_identical);
        assert!(bench.dropped > 0);
        assert_eq!(bench.timings.len(), 3);
        assert!(bench.timings.iter().all(|t| t.workers == 1));
        assert!((bench.timings[0].speedup_vs_aos - 1.0).abs() < 1e-12);
        // The result must serialize (it is written verbatim to
        // BENCH_flows.json).
        rtbh_json::to_string(&bench);
    }

    #[test]
    fn a_slow_or_divergent_record_fails() {
        let mut bench = bench_flows(crate::tiny_corpus(), 1);
        bench.enriched_speedup = ENRICHED_SPEEDUP_FLOOR * 2.0;
        assert!(bench.failures().is_empty());

        let mut slow = bench.clone();
        slow.enriched_speedup = ENRICHED_SPEEDUP_FLOOR - 0.01;
        let failures = slow.failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("5.00x floor"), "{failures:?}");

        bench.answers_identical = false;
        assert_eq!(bench.failures(), ["flow-store kernel variants diverged"]);
    }
}

rtbh_json::impl_json! {
    serialize struct VariantTiming { variant, workers, best_wall_ns, samples_per_sec, speedup_vs_aos }
}

rtbh_json::impl_json! {
    serialize struct MicroBench {
        kernel, baseline, kernel_wall_ns, baseline_wall_ns, speedup, answers_identical,
    }
}

rtbh_json::impl_json! {
    serialize struct FlowsBench {
        dropped, answers_identical, enrich_wall_ns, timings, enriched_speedup, bitset, gallop,
    }
}
