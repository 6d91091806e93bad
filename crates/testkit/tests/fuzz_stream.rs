//! Deterministic fuzz suite for the streaming analyzer
//! (`rtbh_core::stream`).
//!
//! The contract under fire: a hostile event feed — arbitrarily shuffled,
//! duplicated, clock-skewed, burst-laden, or woven from pure generator
//! noise — must never panic the consumer. The stream applies samples in
//! time order, which its anomaly backfill's binary searches rely on; it
//! asserts that order in this suite's debug build, and the finalized
//! columns are checked for it. On top of no-panic: the verdict
//! journal must stay strictly sequential and the ingest and retention
//! counters must balance.
//!
//! Timestamps are drawn from a wide-but-bounded window (±~35 years around
//! the epoch): the wire formats carry full `i64` milliseconds, but the
//! analyzer's interval arithmetic — like the batch pipeline's — assumes
//! timestamps a real collector could emit, and `debug_assert`ed overflow
//! on `i64::MIN/MAX` marks is out of scope for both paths.
//!
//! Every failure prints a `RTBH_FUZZ_SEED=…` reproduction command.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_bgp::UpdateLog;
use rtbh_core::corpus::{Corpus, MemberInfo, Registry};
use rtbh_core::pipeline::AnalyzerConfig;
use rtbh_core::stream::{Retention, StreamAnalyzer, StreamConfig, StreamEvent};
use rtbh_fabric::FlowLog;
use rtbh_net::{Asn, Interval, MacAddr, TimeDelta, Timestamp};
use rtbh_rng::{ChaChaRng, Rng, SliceRandom};
use rtbh_testkit::streamgen::{
    arb_feed, burst_at, duplicate_some, shuffle_bounded, skew_samples, splice_sorted, FeedConfig,
    FeedItem,
};
use rtbh_testkit::FuzzTarget;

fn target(test_name: &'static str, base_seed: u64) -> FuzzTarget {
    FuzzTarget {
        package: "rtbh-testkit",
        test_file: "fuzz_stream",
        test_name,
        base_seed,
    }
}

/// Static context for the consumer under fire (period bounded like a real
/// collector's; the hostile feeds deliberately spill outside it).
fn template() -> Corpus {
    Corpus {
        period: Interval::new(
            Timestamp::EPOCH - TimeDelta::days(1),
            Timestamp::EPOCH + TimeDelta::days(30),
        ),
        sampling_rate: 10_000,
        route_server_asn: Asn(6695),
        updates: UpdateLog::new(),
        flows: FlowLog::new(),
        members: (1..=8u32)
            .map(|id| MemberInfo {
                asn: Asn(64500 + id),
                macs: vec![MacAddr::from_id(id)],
            })
            .collect(),
        registry: Registry::new(),
        internal_macs: vec![MacAddr::from_id(0xF00)],
        routes: vec![("198.51.100.0/24".parse().unwrap(), Asn(64501))],
        caches: Default::default(),
    }
}

fn arb_stream_config<R: Rng>(rng: &mut R, corpus: &Corpus) -> StreamConfig {
    let mut analyzer = AnalyzerConfig::for_corpus(corpus);
    analyzer.chunk_capacity = [0usize, 64, 128, 1024][rng.gen_range(0..4usize)];
    StreamConfig {
        analyzer,
        lateness: TimeDelta::millis(rng.gen_range(0..=3_600_000i64)),
        retention: match rng.gen_range(0..3u32) {
            0 => Retention::Unbounded,
            1 => Retention::Window(TimeDelta::minutes(rng.gen_range(1..=120i64))),
            _ => Retention::Window(TimeDelta::hours(rng.gen_range(1..=48i64))),
        },
    }
}

/// A hostile feed: a well-formed base degraded by a random stack of
/// adversarial combinators.
fn hostile_feed(rng: &mut ChaChaRng) -> Vec<FeedItem> {
    let shape = FeedConfig {
        minutes: rng.gen_range(60..=2880i64),
        runs: rng.gen_range(0..=10usize),
        samples: rng.gen_range(0..=300usize),
    };
    let mut feed = arb_feed(rng, shape);
    if rng.gen_bool(0.7) {
        // Far beyond any lateness bound: the consumer must drop, not die.
        let displacement = rng.gen_range(1..=feed.len().max(2)) as usize;
        feed = shuffle_bounded(rng, &feed, displacement);
    }
    if rng.gen_bool(0.5) {
        let p = rng.gen_range(0.05..0.4f64);
        feed = duplicate_some(rng, &feed, p);
    }
    if rng.gen_bool(0.5) {
        let skew = TimeDelta::millis(rng.gen_range(-600_000..=600_000i64));
        feed = skew_samples(&feed, skew);
    }
    if rng.gen_bool(0.6) {
        // A burst larger than the smallest chunk capacity, spliced at a
        // random in-window instant: must straddle a seal boundary.
        let prefix = "10.0.0.7/32".parse().expect("valid");
        let at = Timestamp::from_millis(rng.gen_range(0..=86_400_000i64));
        let n = rng.gen_range(65..=300usize);
        let burst = burst_at(rng, at, n, prefix);
        feed = splice_sorted(&feed, burst);
    }
    if rng.gen_bool(0.3) {
        // Full shuffle: destroy ordering entirely.
        feed.shuffle(rng);
    }
    feed
}

fn to_event(item: &FeedItem) -> StreamEvent {
    match item {
        FeedItem::Update(u) => StreamEvent::Update(u.clone()),
        FeedItem::Sample(s) => StreamEvent::Sample(*s),
    }
}

#[test]
fn hostile_feeds_never_panic_and_preserve_ring_invariants() {
    let template = template();
    target(
        "hostile_feeds_never_panic_and_preserve_ring_invariants",
        seeds::FUZZ_STREAM_HOSTILE,
    )
    .run(40, |seed, rng| {
        let feed = hostile_feed(rng);
        let config = arb_stream_config(rng, &template);
        let mut stream = StreamAnalyzer::new(&template, config);
        let mut fed = 0u64;
        for item in &feed {
            stream.push(to_event(item));
            fed += 1;
        }
        stream.finish();
        let status = stream.status();
        assert_eq!(
            status.pending, 0,
            "finish drains the buffer (seed {seed:#x})"
        );
        assert_eq!(
            status.updates_ingested + status.samples_ingested + status.late_dropped,
            fed,
            "every pushed event is applied or counted late (seed {seed:#x})"
        );
        assert_eq!(
            status.samples_kept + status.internal_removed,
            status.samples_ingested,
            "clean counters must balance (seed {seed:#x})"
        );
        // The journal stays gap-free and strictly sequential no matter the
        // arrival order.
        for (i, v) in stream.journal().iter().enumerate() {
            assert_eq!(v.seq, i as u64, "journal seq gap (seed {seed:#x})");
            assert!(v.end >= v.start, "inverted verdict span (seed {seed:#x})");
        }
        assert_eq!(status.verdicts, stream.journal().len() as u64);
        // Retention accounting: retained + dropped covers every kept sample.
        assert_eq!(
            status.ring_rows + status.ring_evicted_rows,
            status.samples_kept,
            "ring row accounting (seed {seed:#x})"
        );
    });
}

#[test]
fn hostile_feeds_finalize_into_a_well_formed_report() {
    let template = template();
    // Finalizing runs the full batch pipeline — keep the case count low.
    target(
        "hostile_feeds_finalize_into_a_well_formed_report",
        seeds::FUZZ_STREAM_FINALIZE,
    )
    .run_capped(3, 8, |seed, rng| {
        let feed = hostile_feed(rng);
        let config = arb_stream_config(rng, &template);
        let mut stream = StreamAnalyzer::new(&template, config);
        stream.push_batch(feed.iter().map(to_event));
        stream.finish();
        // Whatever survived the watermark must finalize without panicking,
        // and the rendered report must parse back as JSON.
        let report = stream.into_analyzer().full();
        let text = rtbh_json::to_string(&report);
        rtbh_json::parse(&text)
            .unwrap_or_else(|e| panic!("finalized report is not valid JSON (seed {seed:#x}): {e}"));
    });
}

#[test]
fn duplicate_heavy_feeds_keep_chunk_rows_in_feed_order() {
    let template = template();
    target(
        "duplicate_heavy_feeds_keep_chunk_rows_in_feed_order",
        seeds::FUZZ_STREAM_DUPES,
    )
    .run(30, |seed, rng| {
        let shape = FeedConfig {
            minutes: 600,
            runs: 4,
            samples: rng.gen_range(50..=250usize),
        };
        let base = arb_feed(rng, shape);
        let feed = duplicate_some(rng, &base, 0.5);
        let mut config = arb_stream_config(rng, &template);
        config.lateness = TimeDelta::ZERO;
        config.retention = Retention::Unbounded;
        let mut stream = StreamAnalyzer::new(&template, config);
        stream.push_batch(feed.iter().map(to_event));
        stream.finish();
        // The finalizer moves every timestamp by one constant offset, so
        // the columns keep the applied order: `at` never decreases.
        let analyzer = stream.into_analyzer();
        let mut last = i64::MIN;
        for chunk in analyzer.columns().chunks() {
            for &t in chunk.at_millis() {
                assert!(t >= last, "chunk rows out of order (seed {seed:#x})");
                last = t;
            }
        }
    });
}
