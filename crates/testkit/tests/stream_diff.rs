//! Differential suite: the streaming analyzer versus the batch pipeline.
//!
//! The stream module's headline contract is byte-identity — replaying a
//! sealed corpus through `rtbh_core::stream` and finalizing must render
//! the exact `FullReport` bytes `Analyzer::full` produces. This suite
//! proves the contract three ways:
//!
//! * a **golden sweep** over the pinned golden scenario across chunk
//!   capacities {64, 1024, whole-corpus} × feed batch sizes {1, 7, 4096}
//!   × finalizer worker counts {1, 2, 7}, with ring retention alternating
//!   between unbounded and a bounded window (eviction of live state must
//!   never move report bytes);
//! * **fuzzed configs**: the same identity under randomized
//!   `AnalyzerConfig`s (merge deltas, EWMA windows, offset grids, chunk
//!   capacities) and randomized stream parameters;
//! * **bounded out-of-order feeds**: a feed shuffled within a displacement
//!   bound, consumed with a sufficient lateness allowance, must match the
//!   batch pipeline over the logs reconstructed from that arrival order —
//!   the reorder buffer must be a no-op in report space.
//!
//! Plus the journal half of the contract: replaying the same feed yields
//! an identical verdict journal (and the journal is invariant across feed
//! batch sizes), and recovery from a truncated journal resumes without
//! duplicate or missing verdicts.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
use rtbh_core::corpus::{Corpus, MemberInfo, Registry};
use rtbh_core::pipeline::{AnalyzerConfig, FullReport};
use rtbh_core::preevent::PreClass;
use rtbh_core::stream::{
    interleave, parse_journal, render_journal, Retention, StreamAnalyzer, StreamConfig,
    StreamDriver, StreamEvent, StreamStatus, VerdictRecord,
};
use rtbh_core::Analyzer;
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_net::{
    Asn, Community, Interval, Ipv4Addr, MacAddr, Prefix, Protocol, TimeDelta, Timestamp,
};
use rtbh_rng::{ChaChaRng, Rng};
use rtbh_sim::ScenarioConfig;
use rtbh_testkit::streamgen::{arb_feed, shuffle_bounded, FeedConfig, FeedItem};
use rtbh_testkit::FuzzTarget;

/// The golden scenario (`golden.rs` pins its digest and report snapshot).
fn golden_corpus() -> Corpus {
    let mut config = ScenarioConfig::tiny();
    config.visible_attack_events = 20;
    rtbh_sim::run(&config).corpus
}

fn report_string(corpus: &Corpus, config: AnalyzerConfig) -> String {
    rtbh_json::to_string(&Analyzer::new(corpus.clone(), config).full())
}

#[test]
fn golden_sweep_stream_report_is_byte_identical_to_batch() {
    let corpus = golden_corpus();
    // Reports are byte-identical across worker counts (report_identity
    // pins that), so one batch reference serves the whole sweep.
    let reference = report_string(&corpus, AnalyzerConfig::for_corpus(&corpus));
    let mut combo = 0usize;
    for capacity in [64usize, 1024, 0] {
        for batch_size in [1usize, 7, 4096] {
            for workers in [1usize, 2, 7] {
                // Alternate retention across the sweep so both policies see
                // every capacity; eviction must never move report bytes.
                let retention = if combo % 2 == 0 {
                    Retention::Unbounded
                } else {
                    Retention::Window(TimeDelta::hours(6))
                };
                combo += 1;
                let mut analyzer = AnalyzerConfig::for_corpus(&corpus).with_workers(workers);
                analyzer.chunk_capacity = capacity;
                let config = StreamConfig {
                    analyzer,
                    lateness: TimeDelta::ZERO,
                    retention,
                };
                let run = StreamDriver::new(batch_size).replay(&corpus, config);
                assert_eq!(
                    rtbh_json::to_string(&run.report),
                    reference,
                    "stream diverged from batch at capacity={capacity} \
                     batch_size={batch_size} workers={workers} retention={retention:?}"
                );
            }
        }
    }
}

/// Randomized stage knobs, kept cheap per run (mirrors `report_identity`).
fn arb_analyzer_config(rng: &mut ChaChaRng, corpus: &Corpus) -> AnalyzerConfig {
    let mut config = AnalyzerConfig::for_corpus(corpus);
    config.merge_delta = TimeDelta::minutes(rng.gen_range(1..=30i64));
    config.preevent.slot = TimeDelta::minutes(rng.gen_range(2..=10i64));
    config.preevent.pre_window = TimeDelta::hours(rng.gen_range(12..=48i64));
    config.preevent.ewma.span = rng.gen_range(24..=288usize);
    config.preevent.ewma.threshold_sd = rng.gen_range(1.5..4.0f64);
    config.preevent.anomaly_horizon = TimeDelta::minutes(rng.gen_range(5..=30i64));
    config.preevent.min_anomalous_value = rng.gen_range(2.0..8.0f64);
    config.classify.squatting_min_duration = TimeDelta::days(rng.gen_range(1..=4i64));
    config.classify.zombie_min_duration = TimeDelta::days(rng.gen_range(1..=7i64));
    config.classify.zombie_max_packets = rng.gen_range(5..=20u64);
    config.offset_half_range = TimeDelta::seconds(rng.gen_range(1..=3i64));
    config.offset_step = TimeDelta::millis(rng.gen_range(20..=50i64));
    config.chunk_capacity = [0usize, 64, 1024, 4096][rng.gen_range(0..4usize)];
    config.workers = rng.gen_range(1..=4usize);
    config
}

#[test]
fn fuzzed_configs_stream_report_matches_batch() {
    let corpus = golden_corpus();
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stream_diff",
        test_name: "fuzzed_configs_stream_report_matches_batch",
        base_seed: seeds::FUZZ_STREAM_DIFF,
    };
    // One case = a batch run + a stream replay (itself a batch run), so
    // the count stays small and capped even under RTBH_FUZZ_ITERS.
    target.run_capped(3, 10, |seed, rng| {
        let analyzer = arb_analyzer_config(rng, &corpus);
        let stream_config = StreamConfig {
            analyzer,
            lateness: TimeDelta::ZERO,
            retention: if rng.gen_bool(0.5) {
                Retention::Unbounded
            } else {
                Retention::Window(TimeDelta::hours(rng.gen_range(1..=24i64)))
            },
        };
        let batch_size = [1usize, 7, 64, 4096][rng.gen_range(0..4usize)];
        let run = StreamDriver::new(batch_size).replay(&corpus, stream_config);
        let reference = report_string(&corpus, analyzer);
        assert_eq!(
            rtbh_json::to_string(&run.report),
            reference,
            "stream diverged from batch under config seed {seed:#x}: \
             batch_size={batch_size} {stream_config:?}"
        );
    });
}

/// A corpus template whose static context matches `streamgen`'s domain
/// (member MACs 1..=8, the documentation ranges for addresses).
fn feed_template(minutes: i64) -> Corpus {
    Corpus {
        period: Interval::new(
            Timestamp::EPOCH,
            Timestamp::EPOCH + TimeDelta::minutes(minutes),
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

fn to_event(item: &FeedItem) -> StreamEvent {
    match item {
        FeedItem::Update(u) => StreamEvent::Update(u.clone()),
        FeedItem::Sample(s) => StreamEvent::Sample(*s),
    }
}

/// Builds the batch corpus a collector would have written had it received
/// `feed` in this arrival order: each log stably sorted by timestamp, ties
/// kept in arrival order — exactly the order the reorder buffer applies.
fn corpus_from_feed(template: &Corpus, feed: &[FeedItem]) -> Corpus {
    let updates = feed.iter().filter_map(|i| match i {
        FeedItem::Update(u) => Some(u.clone()),
        FeedItem::Sample(_) => None,
    });
    let samples = feed.iter().filter_map(|i| match i {
        FeedItem::Sample(s) => Some(*s),
        FeedItem::Update(_) => None,
    });
    Corpus {
        updates: UpdateLog::from_updates(updates.collect()),
        flows: FlowLog::from_samples(samples.collect()),
        caches: Default::default(),
        ..template.clone()
    }
}

/// The lateness a feed actually needs: the largest amount any event lags
/// behind the running timestamp maximum, plus one millisecond (the
/// watermark drops events *strictly* behind it).
fn required_lateness(feed: &[FeedItem]) -> TimeDelta {
    let mut max_seen = i64::MIN;
    let mut worst = 0i64;
    for item in feed {
        let at = item.at().as_millis();
        if at < max_seen {
            worst = worst.max(max_seen - at);
        }
        max_seen = max_seen.max(at);
    }
    TimeDelta::millis(worst + 1)
}

#[test]
fn bounded_out_of_order_feeds_match_batch_with_sufficient_lateness() {
    let template = feed_template(FeedConfig::small().minutes);
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stream_diff",
        test_name: "bounded_out_of_order_feeds_match_batch_with_sufficient_lateness",
        base_seed: seeds::FUZZ_STREAM_FEEDS,
    };
    target.run_capped(4, 16, |seed, rng| {
        let feed = arb_feed(rng, FeedConfig::small());
        let displacement = rng.gen_range(0..=25usize);
        let shuffled = shuffle_bounded(rng, &feed, displacement);
        let lateness = required_lateness(&shuffled);
        let mut analyzer = AnalyzerConfig::for_corpus(&template).with_workers(1);
        analyzer.chunk_capacity = [0usize, 64][rng.gen_range(0..2usize)];
        let config = StreamConfig {
            analyzer,
            lateness,
            retention: Retention::Unbounded,
        };
        let mut stream = StreamAnalyzer::new(&template, config);
        stream.push_batch(shuffled.iter().map(to_event));
        stream.finish();
        assert_eq!(
            stream.status().late_dropped,
            0,
            "lateness {lateness:?} must cover displacement {displacement} \
             (seed {seed:#x})"
        );
        let streamed = rtbh_json::to_string(&stream.into_analyzer().full());
        // The batch pipeline over the logs as they arrived: stable sort by
        // timestamp = the reorder buffer's (at, kind, arrival) order.
        let batch = corpus_from_feed(&template, &shuffled);
        let reference = report_string(&batch, analyzer);
        assert_eq!(
            streamed, reference,
            "reorder buffer changed report bytes under seed {seed:#x} \
             (displacement {displacement}, lateness {lateness:?})"
        );
    });
}

#[test]
fn journal_is_deterministic_and_batch_size_invariant() {
    let corpus = golden_corpus();
    let config = StreamConfig::for_corpus(&corpus);
    let reference = StreamDriver::new(1).replay(&corpus, config);
    assert!(
        !reference.journal.is_empty(),
        "golden scenario must journal verdicts"
    );
    for batch_size in [7usize, 4096] {
        let run = StreamDriver::new(batch_size).replay(&corpus, config);
        assert_eq!(
            render_journal(&run.journal),
            render_journal(&reference.journal),
            "journal must not depend on feed batch size ({batch_size})"
        );
    }
    // Record → render → parse → replay: the parsed journal round-trips and
    // a second replay reproduces it byte for byte.
    let text = render_journal(&reference.journal);
    let parsed = parse_journal(&text).expect("journal parses");
    assert_eq!(parsed, reference.journal);
}

#[test]
fn truncated_journal_recovery_resumes_without_gaps_or_duplicates() {
    let corpus = golden_corpus();
    let config = StreamConfig::for_corpus(&corpus);
    let feed: Vec<StreamEvent> = interleave(&corpus);
    let mut full = StreamAnalyzer::new(&corpus, config);
    full.push_batch(feed.iter().cloned());
    full.finish();
    let full_journal = full.journal().to_vec();
    assert!(full_journal.len() >= 3, "need several verdicts to truncate");

    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stream_diff",
        test_name: "truncated_journal_recovery_resumes_without_gaps_or_duplicates",
        base_seed: seeds::FUZZ_STREAM_JOURNAL,
    };
    target.run_capped(4, 12, |seed, rng| {
        // Truncate the durable journal at a random byte offset: recovery
        // re-parses up to the last complete line…
        let text = render_journal(&full_journal);
        let cut = rng.gen_range(1..=text.len() as u64) as usize;
        let kept_text = &text[..cut];
        let last_newline = kept_text.rfind('\n').map_or(0, |i| i + 1);
        let kept = parse_journal(&kept_text[..last_newline]).expect("complete lines parse");
        assert_eq!(kept.as_slice(), &full_journal[..kept.len()]);
        // …then resumes the replay past the last durable seq.
        let mut resumed = StreamAnalyzer::new(&corpus, config);
        if let Some(last) = kept.last() {
            resumed.resume_from(last.seq);
        }
        resumed.push_batch(feed.iter().cloned());
        resumed.finish();
        let mut recovered = kept.clone();
        recovered.extend(resumed.journal().iter().cloned());
        assert_eq!(
            recovered, full_journal,
            "recovery at byte {cut} lost or duplicated verdicts (seed {seed:#x})"
        );
    });
}

/// Rows per block of the stream's applied-sample log.
const BLOCK: usize = rtbh_core::columns::abi::DEFAULT_CHUNK_CAPACITY;
/// One event per second: every event of a block-edge feed has its own
/// timestamp, so each push moves the watermark past all earlier events.
const TICK_MS: i64 = 1_000;
/// The backfill's pre-window in the block-edge feeds, and the retention
/// window: a minute longer, so retention never cuts into a window the
/// backfill reads, yet evicts over feeds 18 to 36 hours long.
const PRE_WINDOW_MIN: i64 = 120;
const RETENTION_MIN: i64 = 121;

/// One blackhole run of a block-edge feed.
struct EdgeRun {
    prefix: Prefix,
    /// Kept-row index before which each of the run's updates is applied:
    /// announce, withdraw, announce, withdraw… (an odd count leaves the
    /// run open until the period end).
    updates: Vec<usize>,
    /// Whether the rows just before the announcement burst towards it.
    burst: bool,
}

/// A synthetic in-order feed keeping exactly `kept` samples, one event per
/// second: background traffic to hosts no run covers, a trickle towards
/// the runs' victims, internal-MAC rows the stream cleans away, and
/// blackhole runs announced at the block edges and around them (so the
/// backfill windows straddle them), some after a burst towards the victim
/// and with dropped rows inside the announcement.
fn block_edge_feed(rng: &mut ChaChaRng, kept: usize) -> Vec<StreamEvent> {
    let mut starts: Vec<usize> = Vec::new();
    for edge in [BLOCK, 2 * BLOCK] {
        for delta in [-1800i64, -2, 0, 1, 3, 900] {
            starts.push((edge as i64 + delta + rng.gen_range(-1..=1i64)) as usize);
        }
    }
    starts.extend((0..3).map(|_| rng.gen_range(4000..kept)));
    // A run starts inside the feed; its later updates due at or past the
    // last row never come, and the run stays open.
    starts.retain(|&s| (4000..kept).contains(&s));
    starts.sort_unstable();
    starts.dedup_by(|a, b| a.abs_diff(*b) < 2);
    let runs: Vec<EdgeRun> = starts
        .iter()
        .enumerate()
        .map(|(r, &start)| {
            let prefix = if r == 0 {
                "10.9.0.0/24".parse().unwrap()
            } else {
                Prefix::new(Ipv4Addr::new(10, 0, r as u8, 7), 32).unwrap()
            };
            let len = rng.gen_range(300..=3000usize);
            let updates = match rng.gen_range(0..5u32) {
                // Left open until the period end.
                0 => vec![start],
                // Re-announced inside the merge Δ: one run of two spans.
                1 => vec![start, start + len, start + len + 120, start + len + 400],
                _ => vec![start, start + len],
            };
            EdgeRun {
                prefix,
                updates,
                burst: rng.gen_bool(0.5),
            }
        })
        .collect();
    // A host of each run's prefix, and the kept rows that target it.
    let victim = |run: &EdgeRun| match run.prefix.len() {
        32 => run.prefix.network(),
        _ => run.prefix.network().wrapping_add(7),
    };
    let mut dst: Vec<Ipv4Addr> = (0..kept)
        .map(|_| Ipv4Addr::new(192, 0, 2, rng.gen_range(1..=254u8)))
        .collect();
    for d in &mut dst {
        if rng.gen_range(0..150u32) == 0 && !runs.is_empty() {
            *d = victim(&runs[rng.gen_range(0..runs.len())]);
        }
    }
    for run in runs.iter().filter(|r| r.burst) {
        for d in &mut dst[run.updates[0] - 40..run.updates[0]] {
            *d = victim(run);
        }
    }
    // Updates due before each kept row.
    let mut due: Vec<(usize, usize, UpdateKind)> = Vec::new();
    for (r, run) in runs.iter().enumerate() {
        for (k, &row) in run.updates.iter().enumerate() {
            let kind = if k % 2 == 0 {
                UpdateKind::Announce
            } else {
                UpdateKind::Withdraw
            };
            due.push((row, r, kind));
        }
    }
    due.sort_by_key(|&(row, r, _)| (row, r));
    // Inside an announcement, with five rows of margin on both sides: a
    // dropped row there is explained at every grid offset.
    let announced_at = |row: usize| {
        runs.iter().find_map(|run| {
            run.updates.chunks(2).find_map(|span| {
                let end = span.get(1).copied().unwrap_or(usize::MAX);
                (span[0] + 5 <= row && row + 5 < end).then_some(run.prefix)
            })
        })
    };

    let mut events = Vec::new();
    let mut tick = 0i64;
    let mut next_at = || {
        tick += 1;
        Timestamp::from_millis(tick * TICK_MS)
    };
    let mut pending = due.iter().peekable();
    let sample = |rng: &mut ChaChaRng, at: Timestamp, dst: Ipv4Addr| FlowSample {
        at,
        src_mac: MacAddr::from_id(rng.gen_range(1..=8u32)),
        dst_mac: MacAddr::from_id(rng.gen_range(1..=8u32)),
        src_ip: Ipv4Addr::new(203, 0, 113, rng.gen_range(1..=254u8)),
        dst_ip: dst,
        protocol: [Protocol::Udp, Protocol::Tcp][rng.gen_range(0..2usize)],
        src_port: [53u16, 123, 443, 50_000][rng.gen_range(0..4usize)],
        dst_port: rng.gen_range(1..=2048u16),
        packet_len: rng.gen_range(64..=1500u16),
        fragment: rng.gen_range(0..100u32) == 0,
    };
    for (i, &d) in dst.iter().enumerate() {
        while let Some(&(_, r, kind)) = pending.next_if(|&&(row, _, _)| row == i) {
            let run = &runs[r];
            events.push(StreamEvent::Update(BgpUpdate {
                at: next_at(),
                peer: Asn(64501 + r as u32 % 8),
                prefix: run.prefix,
                origin: Asn(64501 + r as u32 % 8),
                kind,
                communities: match kind {
                    UpdateKind::Announce => vec![Community::BLACKHOLE],
                    UpdateKind::Withdraw => Vec::new(),
                },
                next_hop: Ipv4Addr::new(198, 51, 100, 66),
            }));
        }
        if rng.gen_range(0..40u32) == 0 {
            // An internal row: either MAC may be the IXP's own device.
            let mut s = sample(rng, next_at(), d);
            if rng.gen_bool(0.5) {
                s.src_mac = MacAddr::from_id(0xF00);
            } else {
                s.dst_mac = MacAddr::from_id(0xF00);
            }
            events.push(StreamEvent::Sample(s));
        }
        let mut s = sample(rng, next_at(), d);
        if announced_at(i).is_some_and(|p| p.contains_addr(d)) && rng.gen_bool(0.5) {
            s.dst_mac = MacAddr::BLACKHOLE;
        }
        events.push(StreamEvent::Sample(s));
    }
    events
}

/// The ring counters of a flat applied-sample log fed alongside a stream
/// with zero lateness and a distinct timestamp per event: pushing an event
/// applies every earlier one, then runs retention with the pushed event's
/// timestamp as the watermark.
struct FlatRing {
    internal: MacAddr,
    capacity: usize,
    window: Option<TimeDelta>,
    /// Timestamps of the kept samples applied so far.
    kept_at: Vec<i64>,
    /// The timestamp of the last event pushed, if a kept sample: it waits
    /// for the next push, or for `finish`.
    waiting: Option<i64>,
    retained: usize,
}

impl FlatRing {
    fn new(template: &Corpus, config: &StreamConfig) -> Self {
        Self {
            internal: template.internal_macs[0],
            capacity: config.analyzer.chunk_capacity,
            window: match config.retention {
                Retention::Window(w) => Some(w),
                Retention::Unbounded => None,
            },
            kept_at: Vec::new(),
            waiting: None,
            retained: 0,
        }
    }

    fn is_kept(&self, s: &FlowSample) -> bool {
        s.src_mac != self.internal && s.dst_mac != self.internal
    }

    fn push(&mut self, e: &StreamEvent) {
        self.kept_at.extend(self.waiting.take());
        if let Some(w) = self.window {
            let cutoff = e.at().as_millis() - w.as_millis();
            while self
                .kept_at
                .get(self.retained + self.capacity - 1)
                .is_some_and(|&at| at < cutoff)
            {
                self.retained += self.capacity;
            }
        }
        if let StreamEvent::Sample(s) = e {
            self.waiting = self.is_kept(s).then_some(s.at.as_millis());
        }
    }

    fn finish(&mut self) {
        self.kept_at.extend(self.waiting.take());
    }

    /// `(samples_kept, ring_chunks, ring_rows, ring_evicted_chunks,
    /// ring_evicted_rows)`; a partial tail chunk counts once `finished`.
    fn counters(&self, finished: bool) -> (u64, u64, u64, u64, u64) {
        let held = self.kept_at.len() - self.retained;
        let chunks = if finished {
            held.div_ceil(self.capacity)
        } else {
            held / self.capacity
        };
        (
            self.kept_at.len() as u64,
            chunks as u64,
            held as u64,
            (self.retained / self.capacity) as u64,
            self.retained as u64,
        )
    }
}

/// [`FlatRing::counters`] as a stream reports them.
fn ring_counters(status: &StreamStatus) -> (u64, u64, u64, u64, u64) {
    (
        status.samples_kept,
        status.ring_chunks,
        status.ring_rows,
        status.ring_evicted_chunks,
        status.ring_evicted_rows,
    )
}

/// The status the stream must report after `finish`: the ring counters of
/// `ring` (fed every event and finished), and every other counter from the
/// feed itself and the batch-derived verdicts.
fn finished_status(
    events: &[StreamEvent],
    ring: &FlatRing,
    verdicts: usize,
    prefixes: usize,
) -> StreamStatus {
    let samples: Vec<&FlowSample> = events
        .iter()
        .filter_map(|e| match e {
            StreamEvent::Sample(s) => Some(s),
            StreamEvent::Update(_) => None,
        })
        .collect();
    let (kept, ring_chunks, ring_rows, ring_evicted_chunks, ring_evicted_rows) =
        ring.counters(true);
    // Every kept dropped row lies well inside an announcement, so each grid
    // offset explains it and the tie goes to zero.
    let dropped_kept = samples.iter().any(|s| ring.is_kept(s) && s.is_dropped());
    StreamStatus {
        updates_ingested: (events.len() - samples.len()) as u64,
        samples_ingested: samples.len() as u64,
        samples_kept: kept,
        internal_removed: samples.len() as u64 - kept,
        late_dropped: 0,
        pending: 0,
        watermark_ms: events.last().map(|e| e.at().as_millis()),
        live_offset_ms: dropped_kept.then_some(0),
        blackhole_prefixes: prefixes as u64,
        open_runs: 0,
        verdicts: verdicts as u64,
        ring_chunks,
        ring_rows,
        ring_evicted_chunks,
        ring_evicted_rows,
    }
}

/// The journal the live verdicts must equal, derived from batch: one
/// verdict per batch event (no run nests in another, and retention keeps
/// every backfill window whole), closed when the watermark passes its end
/// plus Δ, and the runs still waiting at the end of the feed at `finish`,
/// in first-announcement order.
fn batch_journal(
    batch: &Analyzer,
    report: &FullReport,
    events: &[StreamEvent],
    config: &AnalyzerConfig,
) -> Vec<VerdictRecord> {
    let first_announced: Vec<Prefix> = {
        let mut seen = Vec::new();
        for u in batch.corpus().updates.blackholes() {
            if !seen.contains(&u.prefix) {
                seen.push(u.prefix);
            }
        }
        seen
    };
    let last_at = events.last().map_or(Timestamp::EPOCH, StreamEvent::at);
    let mut closing: Vec<((bool, i64, usize), VerdictRecord)> = batch
        .events()
        .iter()
        .map(|e| {
            let (start, end) = (e.start(), e.end());
            let during = events
                .iter()
                .filter(|ev| match ev {
                    StreamEvent::Sample(s) => {
                        s.src_mac != MacAddr::from_id(0xF00)
                            && s.dst_mac != MacAddr::from_id(0xF00)
                            && e.prefix.contains_addr(s.dst_ip)
                            && start <= s.at
                            && s.at < end
                    }
                    StreamEvent::Update(_) => false,
                })
                .count() as u64;
            let anomaly = report.preevents.per_event[e.id].class == PreClass::DataAnomaly;
            let duration = end - start;
            let expires = end + config.merge_delta;
            let id = first_announced.iter().position(|&p| p == e.prefix).unwrap();
            let key = if expires < last_at {
                (false, expires.as_millis(), id)
            } else {
                (true, 0, id)
            };
            let verdict = VerdictRecord {
                seq: 0,
                prefix: e.prefix,
                use_case: config.classify.use_case(
                    anomaly,
                    e.prefix,
                    duration,
                    during,
                    e.open_ended,
                ),
                trigger_peer: e.trigger_peer,
                origin: e.origin,
                start,
                end,
                duration,
                spans: e.spans.len(),
                open_ended: e.open_ended,
                during_packets: during,
                anomaly,
            };
            (key, verdict)
        })
        .collect();
    closing.sort_by_key(|(key, _)| *key);
    closing
        .into_iter()
        .enumerate()
        .map(|(seq, (_, v))| VerdictRecord {
            seq: seq as u64,
            ..v
        })
        .collect()
}

#[test]
fn block_edge_feeds_match_batch_journals_statuses_and_reports() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stream_diff",
        test_name: "block_edge_feeds_match_batch_journals_statuses_and_reports",
        base_seed: seeds::FUZZ_STREAM_BLOCKS,
    };
    // One case is four feeds of up to 2^17 + 1 kept samples, one batch
    // run and three stream runs each; deep runs stay capped.
    target.run_capped(1, 4, |seed, rng| {
        let (mut anomalies, mut evictions) = (0, 0);
        for kept in [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1] {
            let events = block_edge_feed(rng, kept);
            let minutes = events.last().unwrap().at().as_millis() / 60_000 + 60;
            let template = feed_template(minutes);
            let mut analyzer = AnalyzerConfig::for_corpus(&template).with_workers(1);
            analyzer.preevent.slot = TimeDelta::minutes(5);
            analyzer.preevent.pre_window = TimeDelta::minutes(PRE_WINDOW_MIN);
            analyzer.preevent.ewma.span = 20;
            analyzer.preevent.anomaly_horizon = TimeDelta::minutes(10);
            let batch_corpus = Corpus {
                updates: UpdateLog::from_updates(
                    events
                        .iter()
                        .filter_map(|e| match e {
                            StreamEvent::Update(u) => Some(u.clone()),
                            StreamEvent::Sample(_) => None,
                        })
                        .collect(),
                ),
                flows: FlowLog::from_samples(
                    events
                        .iter()
                        .filter_map(|e| match e {
                            StreamEvent::Sample(s) => Some(*s),
                            StreamEvent::Update(_) => None,
                        })
                        .collect(),
                ),
                ..template.clone()
            };
            let batch = Analyzer::new(batch_corpus, analyzer);
            let report = batch.full();
            let reference = rtbh_json::to_string(&report);
            let verdicts = batch_journal(&batch, &report, &events, &analyzer);
            anomalies += verdicts.iter().filter(|v| v.anomaly).count();
            let journal = render_journal(&verdicts);
            let prefixes = batch.index().prefixes().len();
            for (capacity, workers) in [(64, 1), (BLOCK, 2), (2 * BLOCK, 3)] {
                let config = StreamConfig {
                    analyzer: AnalyzerConfig {
                        chunk_capacity: capacity,
                        workers,
                        ..analyzer
                    },
                    lateness: TimeDelta::ZERO,
                    retention: Retention::Window(TimeDelta::minutes(RETENTION_MIN)),
                };
                let label = format!("seed {seed:#x}, {kept} kept, capacity {capacity}");
                let mut stream = StreamAnalyzer::new(&template, config);
                let mut ring = FlatRing::new(&template, &config);
                // The ring counters match the flat log's after every batch,
                // not only once the feed is done.
                for batch in events.chunks(4096) {
                    stream.push_batch(batch.iter().cloned());
                    batch.iter().for_each(|e| ring.push(e));
                    let at = batch.last().unwrap().at();
                    assert_eq!(
                        ring_counters(&stream.status()),
                        ring.counters(false),
                        "ring at {at:?}: {label}"
                    );
                }
                stream.finish();
                ring.finish();
                let status = stream.status();
                evictions += status.ring_evicted_chunks;
                assert_eq!(
                    render_journal(stream.journal()),
                    journal,
                    "journal: {label}"
                );
                let expected = finished_status(&events, &ring, verdicts.len(), prefixes);
                assert_eq!(
                    rtbh_json::to_string(&status),
                    rtbh_json::to_string(&expected),
                    "status: {label}"
                );
                let streamed = rtbh_json::to_string(&stream.into_analyzer().full());
                assert_eq!(streamed, reference, "report: {label}");
            }
        }
        // Not vacuous: some runs rest on a burst, and retention evicted.
        assert!(anomalies > 0, "seed {seed:#x}: no anomaly-backed run");
        assert!(evictions > 0, "seed {seed:#x}: retention never evicted");
    });
}
