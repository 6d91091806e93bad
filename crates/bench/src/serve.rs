//! The `rtbhd` load bench: N concurrent clients against an in-process
//! daemon, with every response cross-checked byte-for-byte before any
//! timing starts.
//!
//! The harness builds a canonical query list — every report section, the
//! corpus summary, event-derived window aggregates and per-prefix drill
//! downs — and computes each query's expected bytes from the batch
//! [`Analyzer::full`](rtbh_core::pipeline::Analyzer::full) report and the
//! *naive* reference kernels ([`window_aggregate_naive`],
//! [`prefix_slice_naive`]), i.e. from code paths the server does not
//! share. A correctness pass replays the whole list over a real TCP
//! connection and compares every reply byte-for-byte; only then do the
//! timed passes run, at 1, 2 and all-cores client concurrency, recording
//! per-request latency for p50/p99 and aggregate queries/sec
//! (`BENCH_serve.json`, `pipeline_bench serve`). Every level is held to
//! [`QPS_FLOOR`].

use std::sync::Arc;
use std::time::Instant;

use rtbh_core::pipeline::{Analyzer, AnalyzerConfig};
use rtbh_core::serve::{
    info_summary, prefix_slice_naive, section_json, window_aggregate_naive, Client, Request,
    Response, Section, ServeOptions, ServeState, Server,
};
use rtbh_core::shard;
use rtbh_sim::Corpus;

use crate::Bench;

/// The least queries/sec any client level may show. Loopback serves
/// thousands even on 2-core hosts, so the floor only trips on a real
/// regression: a lost cache, a serialization storm, an accept-loop stall.
pub const QPS_FLOOR: f64 = 200.0;

/// One timed concurrency level.
#[derive(Debug, Clone)]
pub struct LevelTiming {
    /// Concurrent clients (each on its own TCP connection).
    pub clients: usize,
    /// Requests sent across all clients in the best rep.
    pub requests: u64,
    /// Best-of-reps wall time for the whole level.
    pub best_wall_ns: u64,
    /// Aggregate throughput in the best rep.
    pub queries_per_sec: f64,
    /// Median per-request latency in the best rep.
    pub p50_ns: u64,
    /// 99th-percentile per-request latency in the best rep.
    pub p99_ns: u64,
}

rtbh_json::impl_json! {
    serialize struct LevelTiming {
        clients, requests, best_wall_ns, queries_per_sec, p50_ns, p99_ns,
    }
}

/// The full serve-bench record (`BENCH_serve.json`).
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Distinct queries in the canonical list.
    pub distinct_queries: usize,
    /// True iff every response matched its batch-derived expectation
    /// byte-for-byte before timing.
    pub answers_identical: bool,
    /// Server-side LRU hit ratio over the whole run.
    pub cache_hit_ratio: f64,
    /// Worker threads the in-process daemon ran with.
    pub server_workers: usize,
    /// Timings at 1, 2 and all-cores client concurrency.
    pub levels: Vec<LevelTiming>,
}

rtbh_json::impl_json! {
    serialize struct ServeBench {
        distinct_queries, answers_identical, cache_hit_ratio, server_workers, levels,
    }
}

/// How many times each client replays the canonical list per timed rep.
const LAPS_PER_CLIENT: usize = 3;

/// Builds the canonical query list with batch-derived expected bytes.
fn canonical_queries(state: &ServeState) -> Vec<(Request, Vec<u8>)> {
    let analyzer = state.analyzer();
    let cols = analyzer.columns();
    let index = analyzer.index();
    let period = analyzer.corpus().period;
    let (start, end) = (period.start.as_millis(), period.end.as_millis());

    let mut queries = Vec::new();
    queries.push((Request::Ping, rtbh_json::to_vec_pretty("pong")));
    queries.push((
        Request::Info,
        rtbh_json::to_vec_pretty(&info_summary(analyzer)),
    ));
    for section in Section::ALL {
        queries.push((
            Request::Report(section),
            section_json(state.report(), section),
        ));
    }
    // Whole-period window plus event-derived windows (one minute before
    // each event start to five minutes after — the shape an operator's
    // incident drill-down would ask for).
    let mut windows = vec![(start, end)];
    for event in analyzer.events().iter().take(8) {
        let at = event.start().as_millis();
        windows.push((at - 60_000, at + 300_000));
    }
    for (s, e) in windows {
        queries.push((
            Request::Window {
                start_ms: s,
                end_ms: e,
            },
            rtbh_json::to_vec_pretty(&window_aggregate_naive(cols, s, e)),
        ));
    }
    for &prefix in index.prefixes().iter().take(8) {
        let expected = prefix_slice_naive(index, cols, prefix, start, end)
            .expect("indexed prefix must resolve");
        queries.push((
            Request::Prefix {
                prefix,
                start_ms: start,
                end_ms: end,
            },
            rtbh_json::to_vec_pretty(&expected),
        ));
    }
    queries
}

/// Runs one timed rep: `clients` threads, each replaying the query list
/// [`LAPS_PER_CLIENT`] times on its own connection. Returns (wall ns,
/// per-request latencies ns).
fn timed_rep(
    addr: std::net::SocketAddr,
    queries: &[(Request, Vec<u8>)],
    clients: usize,
) -> (u64, Vec<u64>) {
    let t0 = Instant::now();
    let latencies = std::thread::scope(|s| {
        let joins: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("bench client connect");
                    let mut lats = Vec::with_capacity(queries.len() * LAPS_PER_CLIENT);
                    for _ in 0..LAPS_PER_CLIENT {
                        for (request, _) in queries {
                            let q0 = Instant::now();
                            let reply = client.request(request).expect("bench request");
                            lats.push(q0.elapsed().as_nanos() as u64);
                            assert!(
                                matches!(reply, Response::Ok(_)),
                                "timed pass got an error reply for {request:?}"
                            );
                        }
                    }
                    lats
                })
            })
            .collect();
        let mut all = Vec::new();
        for j in joins {
            all.extend(j.join().expect("bench client thread"));
        }
        all
    });
    (t0.elapsed().as_nanos() as u64, latencies)
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * pct / 100).min(sorted.len() - 1)]
}

/// Spins up an in-process `rtbhd` over `corpus`, cross-checks every
/// canonical query byte-for-byte against the batch answers, then times
/// the query mix at 1, 2 and all-cores client concurrency.
pub fn bench_serve(corpus: &Corpus, reps: usize) -> ServeBench {
    let analyzer = Analyzer::new(corpus.clone(), AnalyzerConfig::for_corpus(corpus));
    let state = Arc::new(ServeState::new(analyzer));
    let queries = canonical_queries(&state);

    let server_workers = shard::resolve_workers(0);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&state), ServeOptions::default())
        .expect("bind in-process daemon");
    let handle = server.spawn().expect("spawn in-process daemon");
    let addr = handle.addr();

    // Correctness pass: every canonical query over a real connection,
    // byte-for-byte against the batch-derived expectation, BEFORE timing.
    let mut answers_identical = true;
    {
        let mut client = Client::connect(addr).expect("cross-check client connect");
        for (request, expected) in &queries {
            match client.request(request).expect("cross-check request") {
                Response::Ok(body) => {
                    if &body != expected {
                        eprintln!("serve bench: response for {request:?} diverged from batch");
                        answers_identical = false;
                    }
                }
                Response::Err { code, message } => {
                    eprintln!("serve bench: {request:?} errored ({code}): {message}");
                    answers_identical = false;
                }
            }
        }
        // Exercise the stats path too (not byte-checked: counters move).
        let _ = client.request(&Request::Stats);
    }

    let mut client_levels = vec![1, 2, server_workers];
    client_levels.sort_unstable();
    client_levels.dedup();
    let mut levels = Vec::new();
    for clients in client_levels {
        let mut best_wall = u64::MAX;
        let mut best_lats: Vec<u64> = Vec::new();
        for _ in 0..reps.max(1) {
            let (wall, lats) = timed_rep(addr, &queries, clients);
            if wall < best_wall {
                best_wall = wall;
                best_lats = lats;
            }
        }
        best_lats.sort_unstable();
        let requests = best_lats.len() as u64;
        levels.push(LevelTiming {
            clients,
            requests,
            best_wall_ns: best_wall,
            queries_per_sec: requests as f64 / (best_wall as f64 / 1e9),
            p50_ns: percentile(&best_lats, 50),
            p99_ns: percentile(&best_lats, 99),
        });
    }

    handle.shutdown().expect("drain in-process daemon");
    ServeBench {
        distinct_queries: queries.len(),
        answers_identical,
        cache_hit_ratio: state.stats_report().cache_hit_ratio,
        server_workers,
        levels,
    }
}

impl Bench for ServeBench {
    fn summary(&self) -> String {
        let mut out = format!(
            "rtbhd: {} distinct queries ({} server workers, cache hit ratio {:.2}):\n",
            self.distinct_queries, self.server_workers, self.cache_hit_ratio
        );
        for l in &self.levels {
            out += &format!(
                "  {:>3} client(s): {:>10.0} q/s  p50 {:>9.1} us  p99 {:>9.1} us  \
                 ({} requests)\n",
                l.clients,
                l.queries_per_sec,
                l.p50_ns as f64 / 1e3,
                l.p99_ns as f64 / 1e3,
                l.requests
            );
        }
        out + &format!(
            "  floor {QPS_FLOOR:.0} q/s   answers identical to batch report: {}",
            self.answers_identical
        )
    }

    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.answers_identical {
            failures.push("rtbhd responses diverged from the batch report".to_string());
        }
        let slowest = self
            .levels
            .iter()
            .min_by(|a, b| a.queries_per_sec.total_cmp(&b.queries_per_sec));
        if let Some(l) = slowest.filter(|l| l.queries_per_sec < QPS_FLOOR) {
            failures.push(format!(
                "rtbhd throughput {:.0} q/s at {} client(s) is below the {QPS_FLOOR:.0} q/s floor",
                l.queries_per_sec, l.clients
            ));
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(clients: usize, queries_per_sec: f64) -> LevelTiming {
        LevelTiming {
            clients,
            requests: 100,
            best_wall_ns: 1_000_000,
            queries_per_sec,
            p50_ns: 1_000,
            p99_ns: 5_000,
        }
    }

    #[test]
    fn a_slow_or_divergent_record_fails() {
        let mut bench = ServeBench {
            distinct_queries: 33,
            answers_identical: true,
            cache_hit_ratio: 0.9,
            server_workers: 2,
            levels: vec![level(1, QPS_FLOOR * 5.0), level(2, QPS_FLOOR * 8.0)],
        };
        assert!(bench.failures().is_empty());

        let mut slow = bench.clone();
        for l in &mut slow.levels {
            l.queries_per_sec = QPS_FLOOR - 1.0;
        }
        let failures = slow.failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("200 q/s floor"), "{failures:?}");

        bench.answers_identical = false;
        assert_eq!(
            bench.failures(),
            ["rtbhd responses diverged from the batch report"]
        );
    }
}
