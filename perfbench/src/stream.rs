//! The `stream` workload: the corpus as one interleaved feed, displaced
//! by a seeded bounded disorder, pushed through `StreamAnalyzer` in
//! 4,096-event batches and finalized; each finalized report is checked
//! byte for byte against batch over the arrival-order logs.

use std::time::Instant;

use rtbh::bgp::UpdateLog;
use rtbh::core::pipeline::{Analyzer, AnalyzerConfig};
use rtbh::core::stream::{
    interleave, Retention, StreamAnalyzer, StreamConfig, StreamEvent, StreamStatus,
};
use rtbh::core::Corpus;
use rtbh::fabric::FlowLog;
use rtbh::net::TimeDelta;
use rtbh_rng::{ChaChaRng, Rng};

use crate::analyze::ratio;
use crate::record::{Metrics, Outcome, Summary};
use crate::sys;
use crate::trace::Tracer;

/// Events per `push_batch` call (the CLI default).
pub const BATCH: usize = 4096;
/// Largest number of positions an event is moved back in the feed.
pub const MAX_DISPLACEMENT: usize = 64;
/// Set-up repetitions per run.
pub const SETUP_ROUNDS: usize = 15;
/// Replays per run at least.
pub const MIN_REPLAYS: usize = 3;

/// Bounded out-of-order arrival order for `n` events: a stable sort of
/// the positions on `index + uniform(0..=MAX_DISPLACEMENT)` moves no
/// event more than that many positions.
pub fn arrival_order(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x5EED_F00D);
    let mut keyed: Vec<(usize, usize)> = (0..n)
        .map(|i| (i + rng.gen_range(0..=MAX_DISPLACEMENT), i))
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// The feed in the seed's arrival order.
pub fn disorder(feed: Vec<StreamEvent>, seed: u64) -> Vec<StreamEvent> {
    let mut slots: Vec<Option<StreamEvent>> = feed.into_iter().map(Some).collect();
    arrival_order(slots.len(), seed)
        .into_iter()
        .map(|i| {
            slots[i]
                .take()
                .expect("a permutation takes each event once")
        })
        .collect()
}

/// The lateness the feed needs so no event is dropped: the largest lag
/// behind the running timestamp maximum, plus one millisecond (the
/// watermark drops events strictly behind it).
pub fn required_lateness(feed: &[StreamEvent]) -> TimeDelta {
    let mut max_seen = i64::MIN;
    let mut worst = 0i64;
    for e in feed {
        let at = e.at().as_millis();
        worst = worst.max(max_seen.saturating_sub(at));
        max_seen = max_seen.max(at);
    }
    TimeDelta::millis(worst + 1)
}

/// The corpus a collector would have written from this arrival order:
/// each log stably sorted by timestamp, ties kept in arrival order.
pub fn arrival_corpus(template: &Corpus, feed: &[StreamEvent]) -> Corpus {
    let mut updates = Vec::new();
    let mut samples = Vec::new();
    for e in feed {
        match e {
            StreamEvent::Update(u) => updates.push(u.clone()),
            StreamEvent::Sample(s) => samples.push(*s),
        }
    }
    Corpus {
        updates: UpdateLog::from_updates(updates),
        flows: FlowLog::from_samples(samples),
        caches: Default::default(),
        ..template.clone()
    }
}

/// The seeded feed with the configuration that ingests it.
pub struct Feed {
    /// Events in arrival order.
    pub events: Vec<StreamEvent>,
    /// Stream configuration: CLI-default workers, lateness covering the
    /// disorder, unbounded retention.
    pub config: StreamConfig,
}

impl Feed {
    /// Builds the seed's feed from the corpus.
    pub fn new(corpus: &Corpus, seed: u64) -> Feed {
        let events = disorder(interleave(corpus), seed);
        let config = StreamConfig {
            analyzer: AnalyzerConfig::for_corpus(corpus).with_workers(0),
            lateness: required_lateness(&events),
            retention: Retention::Unbounded,
        };
        Feed { events, config }
    }

    /// The feed cut into `push_batch` batches (a fresh copy per replay).
    pub fn batches(&self) -> Vec<Vec<StreamEvent>> {
        self.events.chunks(BATCH).map(<[_]>::to_vec).collect()
    }

    /// Batch over the arrival-order logs, as report JSON.
    pub fn reference(&self, corpus: &Corpus) -> Vec<u8> {
        let batch = arrival_corpus(corpus, &self.events);
        rtbh_json::to_vec_pretty(&Analyzer::new(batch, self.config.analyzer).full())
    }
}

/// One replay's timings and results.
pub struct Replay {
    /// Wall time of each `push_batch` call, s.
    pub push: Vec<f64>,
    /// `finish`, s.
    pub finish: f64,
    /// `into_analyzer`, s.
    pub into_analyzer: f64,
    /// `full`, s.
    pub full: f64,
    /// The finalized report as JSON (serialized after the clock stopped).
    pub report: Vec<u8>,
    /// Status after `finish`.
    pub status: StreamStatus,
    /// Largest reorder-buffer occupancy seen after a batch (traced only).
    pub pending_max: u64,
}

impl Replay {
    /// Finalize time: `finish` + `into_analyzer` + `full`, s.
    pub fn finalize(&self) -> f64 {
        self.finish + self.into_analyzer + self.full
    }
}

fn timed<R>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = crate::analyze::step(tracer, name, f);
    (t0.elapsed().as_secs_f64(), out)
}

/// Replays the feed through a fresh `StreamAnalyzer`.
pub fn replay(corpus: &Corpus, feed: &Feed, mut tracer: Option<&mut Tracer>) -> Replay {
    let batches = feed.batches();
    let mut stream = StreamAnalyzer::new(corpus, feed.config);
    let mut push = Vec::with_capacity(batches.len());
    let mut pending_max = 0;
    for (i, batch) in batches.into_iter().enumerate() {
        let t0 = Instant::now();
        match &mut tracer {
            Some(t) => {
                t.span_req("stream.push_batch", Some(i as u64), |_| {
                    stream.push_batch(batch)
                });
                pending_max = pending_max.max(stream.status().pending);
            }
            None => stream.push_batch(batch),
        }
        push.push(t0.elapsed().as_secs_f64());
    }
    let (finish, ()) = timed(&mut tracer, "stream.finish", || stream.finish());
    let status = stream.status();
    let (into_analyzer, analyzer) = timed(&mut tracer, "stream.into_analyzer", || {
        stream.into_analyzer()
    });
    let (full, report) = timed(&mut tracer, "stream.full", || analyzer.full());
    let report = rtbh_json::to_vec_pretty(&report);
    Replay {
        push,
        finish,
        into_analyzer,
        full,
        report,
        status,
        pending_max,
    }
}

/// Checks a replay against the arrival-order batch reference.
pub fn check(replay: &Replay, reference: &[u8]) -> Result<(), String> {
    if replay.status.late_dropped != 0 {
        return Err(format!(
            "stream: {} events dropped late",
            replay.status.late_dropped
        ));
    }
    if replay.report != reference {
        return Err(
            "stream: finalized report differs from batch over the arrival order".to_string(),
        );
    }
    Ok(())
}

/// Events fed per second of `push_batch` time.
pub fn ingest_rate(feed: &Feed, replay: &Replay) -> f64 {
    ratio(feed.events.len() as f64, replay.push.iter().sum())
}

/// One set-up round: interleave the logs and start a stream.
pub fn setup_round(corpus: &Corpus, config: StreamConfig) -> f64 {
    let t0 = Instant::now();
    let events = interleave(corpus);
    let stream = StreamAnalyzer::new(corpus, config);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box((events, stream));
    secs
}

/// The `stream` workload's end-to-end run.
pub fn run(corpus: &Corpus, seed: u64, seconds: f64) -> (Metrics, Outcome) {
    let mut outcome = Outcome::default();
    let feed = Feed::new(corpus, seed);
    let setup: Vec<f64> = (0..SETUP_ROUNDS)
        .map(|_| setup_round(corpus, feed.config))
        .collect();
    let reference = feed.reference(corpus);

    let start = Instant::now();
    let (mut finalize_ms, mut rate, mut peak, mut cpu) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while finalize_ms.len() < MIN_REPLAYS || start.elapsed().as_secs_f64() < seconds {
        sys::reset_peak_rss();
        let cpu0 = sys::cpu_secs();
        let r = replay(corpus, &feed, None);
        cpu.push(sys::cpu_secs() - cpu0);
        peak.push(sys::peak_rss_mb());
        finalize_ms.push(r.finalize() * 1e3);
        rate.push(ingest_rate(&feed, &r));
        outcome.record(check(&r, &reference));
    }

    let mut metrics = Metrics::default();
    metrics.median("setup_s", "s", setup);
    metrics.median("latency_p50_ms", "ms", finalize_ms);
    metrics.median("throughput_per_s", "1/s", rate);
    metrics.median("peak_rss_mb", "MB", peak);
    metrics.median("replay_cpu_s", "s", cpu);
    metrics.value(
        "stream.lateness_ms",
        "ms",
        feed.config.lateness.as_millis() as f64,
    );
    (metrics, outcome)
}

/// The traced probe of the stream layers: one replay with a span per
/// `push_batch`, `finish`, `into_analyzer` and `full`.
pub fn probe(corpus: &Corpus, feed: &Feed, reference: &[u8], t: &mut Tracer) -> (Metrics, Outcome) {
    let mut outcome = Outcome::default();
    let (interleave_s, events) = {
        let t0 = Instant::now();
        let events = t.span("stream.interleave", |_| interleave(corpus));
        (t0.elapsed().as_secs_f64(), events)
    };
    drop(events);
    let r = replay(corpus, feed, Some(t));
    outcome.record(check(&r, reference));
    let push_us: Vec<f64> = r.push.iter().map(|s| s * 1e6).collect();
    let summary = Summary::of(&push_us).expect("the feed has batches");
    let mut sorted = push_us.clone();
    sorted.sort_by(f64::total_cmp);
    let mut m = Metrics::default();
    m.value("stream.interleave_s", "s", interleave_s);
    m.value("stream.push_s", "s", r.push.iter().sum());
    m.value("stream.push_batch_p50_us", "us", summary.median);
    m.value(
        "stream.push_batch_p90_us",
        "us",
        crate::record::tail(&sorted, 0.9).unwrap_or(f64::NAN),
    );
    m.value("stream.pending_max", "count", r.pending_max as f64);
    m.value("stream.late_dropped", "count", r.status.late_dropped as f64);
    m.value("stream.ring_chunks", "count", r.status.ring_chunks as f64);
    m.value("stream.verdicts", "count", r.status.verdicts as f64);
    m.value("stream.finish_s", "s", r.finish);
    m.value("stream.into_analyzer_s", "s", r.into_analyzer);
    m.value("stream.full_s", "s", r.full);
    (m, outcome)
}

/// The tracing overhead on this workload: replays alternately untraced
/// and traced, compared on finalize-plus-ingest time.
pub fn overhead(corpus: &Corpus, feed: &Feed, pairs: usize, t: &mut Tracer) -> f64 {
    let total = |r: &Replay| r.push.iter().sum::<f64>() + r.finalize();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        crate::trace::set_counting(false);
        plain.push(total(&replay(corpus, feed, None)));
        crate::trace::set_counting(true);
        traced.push(total(
            &t.span("overhead.replay", |t| replay(corpus, feed, Some(t))),
        ));
    }
    crate::analyze::overhead_share(&plain, &traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disorder_is_seeded_bounded_and_needs_no_late_drops() {
        let order = arrival_order(10_000, 3);
        assert_eq!(order, arrival_order(10_000, 3));
        let mut seen = order.clone();
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(0..10_000), "a permutation");
        assert!(
            order.iter().enumerate().any(|(pos, &i)| pos != i),
            "displaced"
        );
        for (pos, &i) in order.iter().enumerate() {
            assert!(
                pos.abs_diff(i) <= MAX_DISPLACEMENT,
                "event {i} moved to {pos}"
            );
        }

        let corpus = rtbh::sim::run(&rtbh::sim::ScenarioConfig::tiny()).corpus;
        let feed = Feed::new(&corpus, 3);
        let reference = feed.reference(&corpus);
        let r = replay(&corpus, &feed, None);
        assert_eq!(r.status.late_dropped, 0);
        assert_eq!(check(&r, &reference), Ok(()));
    }
}
