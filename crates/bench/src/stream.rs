//! The streaming-ingest throughput bench: the corpus replayed through
//! [`rtbh_core::stream`] with the finalized report cross-checked
//! byte-for-byte against the batch pipeline before any timing is recorded.
//!
//! For every worker level (1, 2, all cores — worker counts shard the
//! *finalizer's* batch kernels; ingest itself is single-threaded by
//! design, one ordered feed) the harness replays the interleaved feed
//! `reps` times, keeps the best ingest wall time, and records events/sec.
//! A level is only recorded after its finalized `FullReport` matched the
//! batch report byte-for-byte (`BENCH_stream.json`,
//! `pipeline_bench stream`). Every level is held to
//! [`EVENTS_PER_SEC_FLOOR`].

use rtbh_core::pipeline::{Analyzer, AnalyzerConfig};
use rtbh_core::shard;
use rtbh_core::stream::{StreamConfig, StreamDriver};
use rtbh_sim::Corpus;

use crate::Bench;

/// The least ingest events/sec any worker level may show. Ingest runs
/// above 2M events/s, so the floor only trips on a real regression.
pub const EVENTS_PER_SEC_FLOOR: f64 = 100_000.0;

/// One timed worker level.
#[derive(Debug, Clone)]
pub struct StreamLevel {
    /// Finalizer worker threads (ingest is one ordered feed).
    pub workers: usize,
    /// Events (updates + samples) fed per rep.
    pub events: u64,
    /// Best-of-reps ingest wall time.
    pub best_ingest_ns: u64,
    /// Ingest throughput in the best rep.
    pub events_per_sec: f64,
    /// Finalize wall time in the best rep: `finish`, then the batch
    /// prepare and stages over the accumulated logs (every profile row
    /// but `ingest`, plus the stage phase).
    pub finalize_ns: u64,
    /// True iff this level's finalized report matched the batch report
    /// byte-for-byte.
    pub report_identical: bool,
}

rtbh_json::impl_json! {
    serialize struct StreamLevel {
        workers, events, best_ingest_ns, events_per_sec, finalize_ns,
        report_identical,
    }
}

/// The full stream-bench record (`BENCH_stream.json`).
#[derive(Debug, Clone)]
pub struct StreamBench {
    /// BGP updates in the corpus.
    pub updates: usize,
    /// Feed batch size used for ingest.
    pub batch_size: usize,
    /// True iff every level's report matched batch byte-for-byte.
    pub answers_identical: bool,
    /// Live verdicts journaled per replay.
    pub verdicts: u64,
    /// Timings at 1, 2 and all-cores finalizer workers.
    pub levels: Vec<StreamLevel>,
    /// Minimum events/sec across levels (held to
    /// [`EVENTS_PER_SEC_FLOOR`]).
    pub min_events_per_sec: f64,
}

rtbh_json::impl_json! {
    serialize struct StreamBench {
        updates, batch_size, answers_identical, verdicts, levels, min_events_per_sec,
    }
}

/// Feed batch size for the timed replays (the CLI default).
const BATCH_SIZE: usize = 4096;

/// Computes the batch reference report over `corpus` once, then for each
/// worker level replays the interleaved feed through the streaming
/// analyzer `reps` times, byte-compares the finalized report against the
/// reference and records ingest events/sec.
pub fn bench_stream(corpus: &Corpus, reps: usize) -> StreamBench {
    let all_workers = shard::resolve_workers(0);
    let mut worker_levels = vec![1, 2, all_workers];
    worker_levels.sort_unstable();
    worker_levels.dedup();

    let expected = rtbh_json::to_vec_pretty(&Analyzer::with_defaults(corpus.clone()).full());
    let mut answers_identical = true;
    let mut verdicts = 0u64;
    let mut levels = Vec::new();
    for workers in worker_levels {
        let analyzer_config = AnalyzerConfig::for_corpus(corpus).with_workers(workers);
        let stream_config = StreamConfig {
            analyzer: analyzer_config,
            ..StreamConfig::for_corpus(corpus)
        };
        let driver = StreamDriver::new(BATCH_SIZE);
        let mut best_ingest = u64::MAX;
        let mut finalize_ns = 0u64;
        let mut events = 0u64;
        let mut report_identical = true;
        for _ in 0..reps.max(1) {
            let run = driver.replay(corpus, stream_config);
            // Correctness BEFORE the numbers count: a fast-but-wrong
            // stream path must fail the bench, not win it.
            if rtbh_json::to_vec_pretty(&run.report) != expected {
                eprintln!("stream bench: finalized report diverged from batch ({workers} workers)");
                report_identical = false;
                answers_identical = false;
            }
            events = run.events_fed as u64;
            verdicts = run.status.verdicts;
            let ingest_ns = run
                .profile
                .prepare
                .iter()
                .find(|s| s.stage == "ingest")
                .map_or(u64::MAX, |s| s.wall_ns.max(1));
            if ingest_ns < best_ingest {
                best_ingest = ingest_ns;
                finalize_ns = run.profile.prepare_sum_ns().saturating_sub(ingest_ns)
                    + run.profile.total_wall_ns;
            }
        }
        levels.push(StreamLevel {
            workers,
            events,
            best_ingest_ns: best_ingest,
            events_per_sec: events as f64 / (best_ingest as f64 / 1e9),
            finalize_ns,
            report_identical,
        });
    }

    let min_events_per_sec = levels
        .iter()
        .map(|l| l.events_per_sec)
        .fold(f64::INFINITY, f64::min);
    StreamBench {
        updates: corpus.updates.len(),
        batch_size: BATCH_SIZE,
        answers_identical,
        verdicts,
        levels,
        min_events_per_sec,
    }
}

impl Bench for StreamBench {
    fn summary(&self) -> String {
        let events = self.levels.first().map_or(0, |l| l.events);
        let mut out = format!(
            "stream: {} events ({} updates), batch size {}, {} live verdicts per replay:\n",
            events, self.updates, self.batch_size, self.verdicts
        );
        for l in &self.levels {
            out += &format!(
                "  {:>3} worker(s): {:>12.0} events/s ingest  \
                 (finalize {:>8.2} ms, report identical: {})\n",
                l.workers,
                l.events_per_sec,
                l.finalize_ns as f64 / 1e6,
                l.report_identical
            );
        }
        out + &format!(
            "  floor {EVENTS_PER_SEC_FLOOR:.0} events/s   finalized reports identical to batch: {}",
            self.answers_identical
        )
    }

    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.answers_identical {
            failures.push("stream-finalized report diverged from batch".to_string());
        }
        if self.min_events_per_sec < EVENTS_PER_SEC_FLOOR {
            failures.push(format!(
                "stream ingest {:.0} events/s is below the {EVENTS_PER_SEC_FLOOR:.0} events/s floor",
                self.min_events_per_sec
            ));
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_or_divergent_record_fails() {
        let level = StreamLevel {
            workers: 1,
            events: 1_000,
            best_ingest_ns: 1_000_000,
            events_per_sec: 1e6,
            finalize_ns: 5_000_000,
            report_identical: true,
        };
        let mut bench = StreamBench {
            updates: 100,
            batch_size: BATCH_SIZE,
            answers_identical: true,
            verdicts: 10,
            levels: vec![level],
            min_events_per_sec: 1e6,
        };
        assert!(bench.failures().is_empty());

        let mut slow = bench.clone();
        slow.min_events_per_sec = EVENTS_PER_SEC_FLOOR - 1.0;
        let failures = slow.failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("100000 events/s floor"),
            "{failures:?}"
        );

        bench.answers_identical = false;
        assert_eq!(
            bench.failures(),
            ["stream-finalized report diverged from batch"]
        );
    }
}
