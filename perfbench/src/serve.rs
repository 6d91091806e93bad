//! The serve layers, driven from outside: an in-process `rtbhd`
//! (`ServeState` + `Server` on loopback, two workers) over a seeded query
//! mix, with every reply checked byte for byte and the server's counters
//! balanced against what was sent. The traced run of every workload
//! replays the mix in-process through `Request::decode`,
//! `ServeState::answer` and `Response::encode`, then drives the server
//! over loopback:
//!
//! - `session` holds one connection at a fixed rate;
//! - `oneshot` connects, sends one request and closes (what every
//!   `rtbh query` does), from two generators at a low rate.
//!
//! At most two connections are open at once: the server pins one worker
//! per open connection.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use rtbh::core::filter::{filter_aggregate_naive, CmpCol, CmpOp, FilterQuery, FlagCol, Predicate};
use rtbh::core::pipeline::{Analyzer, AnalyzerConfig, FullReport};
use rtbh::core::serve::{
    prefix_slice_naive, section_json, window_aggregate_naive, Client, Request, Response, Section,
    ServeOptions, ServeState, Server, ServerHandle, StatsReport,
};
use rtbh::core::Corpus;
use rtbh::net::Prefix;
use rtbh_json::Json;
use rtbh_rng::{ChaChaRng, Rng, SliceRandom};

use crate::analyze::ratio;
use crate::loadgen::{generator_lateness_ms, poisson_schedule, run_open_loop, Timing};
use crate::record::{tail, Metrics, Outcome, Summary};
use crate::sys;
use crate::trace::Tracer;

/// Server worker threads.
pub const SERVER_WORKERS: usize = 2;
/// `session` rate of the fixed-rate phase, requests/s.
pub const SESSION_RATE: f64 = 500.0;
/// `oneshot` rate per generator, connections/s.
pub const ONESHOT_RATE: f64 = 25.0;
/// `oneshot` generators running together.
pub const ONESHOT_GENERATORS: u64 = 2;
/// Fixed-rate `session` requests in the traced loopback load (a p99
/// needs a thousand).
pub const PROBE_SESSION_REQUESTS: usize = 3000;
/// `oneshot` phase of the traced loopback load, s.
pub const PROBE_ONESHOT_SECONDS: f64 = 4.0;

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A report section (cached after first use).
    Report,
    /// A random window aggregate.
    Window,
    /// A random prefix drill-down.
    Prefix,
    /// A random predicate filter.
    Filter,
}

impl Class {
    /// Every class, in reporting order.
    pub const ALL: [Class; 4] = [Class::Report, Class::Window, Class::Prefix, Class::Filter];

    /// Metric-name spelling.
    pub fn name(self) -> &'static str {
        match self {
            Class::Report => "report",
            Class::Window => "window",
            Class::Prefix => "prefix",
            Class::Filter => "filter",
        }
    }

    /// The class of a request.
    pub fn of(request: &Request) -> Class {
        match request {
            Request::Report(_) => Class::Report,
            Request::Window { .. } => Class::Window,
            Request::Prefix { .. } => Class::Prefix,
            _ => Class::Filter,
        }
    }
}

/// Cards per class in every 1,000 requests.
pub const CLASS_WEIGHTS: [(Class, usize); 4] = [
    (Class::Report, 300),
    (Class::Window, 300),
    (Class::Prefix, 250),
    (Class::Filter, 150),
];

/// Cards per section in every 100 report requests: skewed toward the
/// small sections, with the 17 MB `full` and 12 MB `load` bodies common
/// enough to stay in the 256-entry LRU between uses.
pub const SECTION_WEIGHTS: [(Section, usize); 14] = [
    (Section::Headline, 40),
    (Section::Clean, 8),
    (Section::Alignment, 8),
    (Section::Provenance, 8),
    (Section::Classification, 8),
    (Section::Visibility, 5),
    (Section::Acceptance, 5),
    (Section::Protocols, 4),
    (Section::Preevents, 3),
    (Section::Filtering, 3),
    (Section::Hosts, 2),
    (Section::Collateral, 2),
    (Section::Load, 2),
    (Section::Full, 2),
];

/// Distinct random queries per class: far more than the LRU holds.
pub const POOL: [(Class, usize); 3] = [
    (Class::Window, 2048),
    (Class::Prefix, 2048),
    (Class::Filter, 1024),
];

fn deck<T: Copy>(weights: &[(T, usize)], rng: &mut ChaChaRng) -> Vec<T> {
    let mut cards: Vec<T> = weights
        .iter()
        .flat_map(|&(x, n)| std::iter::repeat_n(x, n))
        .collect();
    cards.shuffle(rng);
    cards
}

/// A window inside the period: uniform start, length at quantile `q` of
/// a log-uniform distribution from one minute to one day.
fn window_at(rng: &mut ChaChaRng, q: f64, start: i64, end: i64) -> (i64, i64) {
    let s = start + rng.gen_range(0..(end - start) as u64) as i64;
    let (lo, hi) = ((60_000f64).ln(), (86_400_000f64).ln());
    let len = (lo + q * (hi - lo)).exp() as i64;
    (s, (s + len).min(end))
}

fn random_predicate(rng: &mut ChaChaRng) -> Predicate {
    const PORTS: [u32; 7] = [53, 80, 123, 389, 443, 1900, 11211];
    let cmp = |col, op, value| Predicate::Cmp { col, op, value };
    match rng.gen_range(0..7u32) {
        0 => cmp(
            CmpCol::DstPort,
            CmpOp::Eq,
            *PORTS.choose(rng).expect("ports"),
        ),
        1 => cmp(
            CmpCol::SrcPort,
            CmpOp::Eq,
            *PORTS.choose(rng).expect("ports"),
        ),
        2 => cmp(
            CmpCol::Protocol,
            CmpOp::Eq,
            [6, 17][rng.gen_range(0..2usize)],
        ),
        3 => cmp(
            CmpCol::PacketLen,
            CmpOp::Ge,
            [500, 1000, 1400][rng.gen_range(0..3usize)],
        ),
        4 => cmp(
            CmpCol::PacketLen,
            CmpOp::Lt,
            [100, 200][rng.gen_range(0..2usize)],
        ),
        5 => Predicate::Flag {
            col: FlagCol::Fragment,
            set: true,
        },
        _ => Predicate::Flag {
            col: [FlagCol::Dropped, FlagCol::Active][rng.gen_range(0..2usize)],
            set: rng.gen_bool(0.5),
        },
    }
}

/// The seeded query mix: a shuffled deck of classes and sections, and
/// pools of random window, prefix and filter queries.
pub struct Mix {
    classes: Vec<Class>,
    sections: Vec<Section>,
    pools: HashMap<Class, Vec<Request>>,
}

impl Mix {
    /// Builds the mix for a served analyzer.
    pub fn new(analyzer: &Analyzer, seed: u64) -> Mix {
        let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x5E2F_E0A1);
        let period = analyzer.corpus().period;
        let (start, end) = (period.start.as_millis(), period.end.as_millis());
        let prefixes: &[Prefix] = analyzer.index().prefixes();
        assert!(!prefixes.is_empty(), "the corpus has blackholed prefixes");
        // Every pool has the same composition whatever the seed: window
        // lengths at evenly spaced quantiles, each blackholed prefix equally
        // often, 1 to 3 predicates in turn. The seed places the windows,
        // draws the predicates and shuffles the pool. (Query cost grows
        // with window length and prefix size, so drawing those freely
        // would let the seed move the throughput.)
        let mut pools = HashMap::new();
        for (class, n) in POOL {
            let mut pool: Vec<Request> = (0..n)
                .map(|i| {
                    let q = (i as f64 + 0.5) / n as f64;
                    let (s, e) = window_at(&mut rng, q, start, end);
                    let prefix = prefixes[i % prefixes.len()];
                    match class {
                        Class::Window => Request::Window {
                            start_ms: s,
                            end_ms: e,
                        },
                        Class::Prefix if i % 2 == 0 => Request::Prefix {
                            prefix,
                            start_ms: start,
                            end_ms: end,
                        },
                        Class::Prefix => Request::Prefix {
                            prefix,
                            start_ms: s,
                            end_ms: e,
                        },
                        _ => {
                            let preds = (0..=i % 3).map(|_| random_predicate(&mut rng)).collect();
                            let mut q = FilterQuery::matching(preds).with_window(s, e);
                            if i % 10 < 3 {
                                q = q.with_prefix(prefix);
                            }
                            Request::Filter(q)
                        }
                    }
                })
                .collect();
            pool.shuffle(&mut rng);
            pools.insert(class, pool);
        }
        Mix {
            classes: deck(&CLASS_WEIGHTS, &mut rng),
            sections: deck(&SECTION_WEIGHTS, &mut rng),
            pools,
        }
    }

    /// A request stream over the mix, seeded by `stream`. Without `bulk`
    /// the stream skips the `full` and `load` sections.
    pub fn stream(&self, seed: u64, stream: u64, bulk: bool) -> MixStream<'_> {
        MixStream {
            mix: self,
            rng: ChaChaRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            next: 0,
            next_section: 0,
            bulk,
        }
    }
}

/// A deterministic request sequence drawn from a [`Mix`]: classes and
/// sections in deck order (every 1,000 requests carry exactly the
/// deck's shares), query parameters drawn from the pools.
pub struct MixStream<'a> {
    mix: &'a Mix,
    rng: ChaChaRng,
    next: usize,
    next_section: usize,
    bulk: bool,
}

/// The two sections whose bodies run to megabytes.
pub fn is_bulk(section: Section) -> bool {
    matches!(section, Section::Full | Section::Load)
}

impl MixStream<'_> {
    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let class = self.mix.classes[self.next % self.mix.classes.len()];
        self.next += 1;
        match class {
            Class::Report => loop {
                let section = self.mix.sections[self.next_section % self.mix.sections.len()];
                self.next_section += 1;
                if self.bulk || !is_bulk(section) {
                    break Request::Report(section);
                }
            },
            _ => self.mix.pools[&class]
                .choose(&mut self.rng)
                .expect("pool")
                .clone(),
        }
    }
}

/// Expected report-section bodies from an independent batch report.
pub struct Expected {
    sections: Vec<Vec<u8>>,
}

impl Expected {
    /// Section bodies of `report`, by section tag.
    pub fn new(report: &FullReport) -> Expected {
        Expected {
            sections: Section::ALL
                .iter()
                .map(|&s| section_json(report, s))
                .collect(),
        }
    }
}

/// Replies a generator saw, for the checks after the run.
#[derive(Default)]
pub struct Seen {
    /// First reply body per distinct non-report request (keyed by its
    /// wire encoding).
    pub replies: HashMap<Vec<u8>, Vec<u8>>,
    /// Requests sent.
    pub sent: u64,
    /// Connections opened.
    pub connections: u64,
}

impl Seen {
    /// Checks one reply as it arrives: report sections against the batch
    /// report, other queries against the first reply to the same query.
    fn check(
        &mut self,
        request: &Request,
        reply: Result<Response, String>,
        expected: &Expected,
    ) -> Result<(), String> {
        self.sent += 1;
        let body = match reply? {
            Response::Ok(body) => body,
            Response::Err { code, message } => {
                return Err(format!("serve: error reply {code}: {message}"))
            }
        };
        if let Request::Report(section) = request {
            return if body == expected.sections[*section as usize] {
                Ok(())
            } else {
                Err(format!(
                    "serve: report {} differs from the batch report",
                    section.name()
                ))
            };
        }
        match self.replies.get(&request.encode()) {
            Some(first) if *first != body => {
                Err("serve: two replies to one query differ".to_string())
            }
            Some(_) => Ok(()),
            None => {
                self.replies.insert(request.encode(), body);
                Ok(())
            }
        }
    }

    fn merge(&mut self, other: Seen, outcome: &mut Outcome) {
        self.sent += other.sent;
        self.connections += other.connections;
        for (k, v) in other.replies {
            match self.replies.get(&k) {
                Some(first) if *first != v => {
                    outcome.fail("serve: two replies to one query differ".to_string())
                }
                Some(_) => {}
                None => {
                    self.replies.insert(k, v);
                }
            }
        }
    }
}

/// The naive reference body for a non-report query.
pub fn naive_body(analyzer: &Analyzer, request: &Request) -> Result<Vec<u8>, String> {
    let cols = analyzer.columns();
    let index = analyzer.index();
    match request {
        Request::Window { start_ms, end_ms } => Ok(rtbh_json::to_vec_pretty(
            &window_aggregate_naive(cols, *start_ms, *end_ms),
        )),
        Request::Prefix {
            prefix,
            start_ms,
            end_ms,
        } => prefix_slice_naive(index, cols, *prefix, *start_ms, *end_ms)
            .map(|s| rtbh_json::to_vec_pretty(&s))
            .ok_or_else(|| format!("serve: prefix {prefix} is not indexed")),
        Request::Filter(query) => {
            let pid = match query.prefix {
                Some(p) => Some(
                    index
                        .prefix_id(p)
                        .ok_or_else(|| format!("serve: prefix {p} is not indexed"))?
                        as u32,
                ),
                None => None,
            };
            Ok(rtbh_json::to_vec_pretty(&filter_aggregate_naive(
                cols, pid, query,
            )))
        }
        other => Err(format!("serve: no naive reference for {other:?}")),
    }
}

/// Checks every distinct non-report reply against the naive kernels, on
/// `workers` threads. Returns one failure message per mismatch.
pub fn verify_naive(
    analyzer: &Analyzer,
    replies: &HashMap<Vec<u8>, Vec<u8>>,
    workers: usize,
) -> Vec<String> {
    let entries: Vec<(&Vec<u8>, &Vec<u8>)> = replies.iter().collect();
    let chunk = entries.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = entries
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut failures = Vec::new();
                    for (key, body) in part {
                        let result = Request::decode(key)
                            .map_err(|e| format!("serve: undecodable request: {e}"))
                            .and_then(|r| naive_body(analyzer, &r));
                        match result {
                            Ok(expected) if expected == **body => {}
                            Ok(_) => failures
                                .push("serve: reply differs from the naive kernel".to_string()),
                            Err(e) => failures.push(e),
                        }
                    }
                    failures
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    })
}

/// What the generators sent, for the counter balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// Requests sent (every one is a cacheable query).
    pub queries: u64,
    /// Connections opened.
    pub connections: u64,
}

/// Checks the server's counters against what the generators sent: one
/// query and one cache lookup per request, no error replies, one
/// accepted connection per connection opened.
pub fn balance(stats: &StatsReport, sent: &Sent) -> Result<(), String> {
    let mut problems = Vec::new();
    if stats.queries != sent.queries {
        problems.push(format!(
            "{} queries counted, {} sent",
            stats.queries, sent.queries
        ));
    }
    if stats.errors != 0 {
        problems.push(format!("{} error replies", stats.errors));
    }
    if stats.cache_hits + stats.cache_misses != sent.queries {
        problems.push(format!(
            "{} cache hits + {} misses for {} cacheable queries",
            stats.cache_hits, stats.cache_misses, sent.queries
        ));
    }
    if stats.connections != sent.connections {
        problems.push(format!(
            "{} connections accepted, {} opened",
            stats.connections, sent.connections
        ));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!("serve: stats unbalanced: {}", problems.join("; ")))
    }
}

/// A running in-process server.
pub struct Served {
    /// The shared state (counters, analyzer).
    pub state: Arc<ServeState>,
    /// The running server.
    pub handle: ServerHandle,
}

/// Binds loopback and starts the server on `state`.
pub fn start(state: &Arc<ServeState>) -> Result<ServerHandle, String> {
    let options = ServeOptions {
        workers: SERVER_WORKERS,
        ..ServeOptions::default()
    };
    Server::bind("127.0.0.1:0", Arc::clone(state), options)
        .and_then(Server::spawn)
        .map_err(|e| format!("serve: bind: {e}"))
}

/// Phase lengths of one loopback load.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Requests in the fixed-rate `session` phase.
    pub session_requests: usize,
    /// `oneshot` phase, s.
    pub oneshot: f64,
}

/// Everything one load measured.
pub struct Load {
    /// Fixed-rate `session` timings.
    pub session: Vec<Timing>,
    /// `oneshot` timings.
    pub oneshot: Vec<Timing>,
    /// Replies seen by the generators.
    pub seen: Seen,
    /// Process CPU seconds over wall seconds × cores during the load.
    pub cpu_share: f64,
}

fn exchange(client: &mut Client, request: &Request) -> Result<Response, String> {
    client.request(request).map_err(|e| format!("serve: {e}"))
}

/// One `oneshot` generator: a fresh connection per request.
fn oneshot_phase(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    id: u64,
    seconds: f64,
    expected: &Expected,
) -> (Vec<Timing>, Seen, Outcome) {
    let (mut seen, mut out) = (Seen::default(), Outcome::default());
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x0E5_4071 ^ id);
    let mut requests = mix.stream(seed, 10 + id, false);
    let dues = poisson_schedule(&mut rng, ONESHOT_RATE, seconds);
    let timings = run_open_loop(Instant::now(), &dues, |_| {
        let r = requests.next_request();
        let reply = Client::connect(addr)
            .map_err(|e| format!("serve: connect: {e}"))
            .and_then(|mut c| exchange(&mut c, &r));
        seen.connections += 1;
        out.record(seen.check(&r, reply, expected));
    });
    (timings, seen, out)
}

/// Runs the generators against `addr`, one phase after the other so
/// that neither phase's latency carries the other's load: `session` at
/// a fixed rate on one connection, then `oneshot` from
/// [`ONESHOT_GENERATORS`] threads. At most two connections are open at
/// once. Neither phase sends the two bulk sections: on one connection a
/// multi-megabyte reply blocks every request queued behind it.
pub fn load(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    plan: Plan,
    expected: &Expected,
    outcome: &mut Outcome,
) -> Load {
    let cpu0 = sys::cpu_secs();
    let t0 = Instant::now();
    let mut seen = Seen::default();
    let mut session = Vec::new();
    match Client::connect(addr) {
        Ok(mut client) => {
            seen.connections += 1;
            let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x5E55_1011);
            let dues = fixed_count_schedule(&mut rng, SESSION_RATE, plan.session_requests);
            let mut requests = mix.stream(seed, 2, false);
            session = run_open_loop(Instant::now(), &dues, |_| {
                let r = requests.next_request();
                let reply = exchange(&mut client, &r);
                outcome.record(seen.check(&r, reply, expected));
            });
        }
        Err(e) => outcome.record(Err(format!("serve: connect: {e}"))),
    }

    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ONESHOT_GENERATORS)
            .map(|i| s.spawn(move || oneshot_phase(addr, mix, seed, i, plan.oneshot, expected)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oneshot generator panicked"))
            .collect::<Vec<_>>()
    });
    let mut oneshot = Vec::new();
    for (timings, part_seen, part_out) in parts {
        oneshot.extend(timings);
        outcome.absorb(part_out);
        seen.merge(part_seen, outcome);
    }
    let wall = t0.elapsed().as_secs_f64();
    Load {
        session,
        oneshot,
        seen,
        cpu_share: ratio(sys::cpu_secs() - cpu0, wall * sys::nproc() as f64),
    }
}

/// Exactly `n` Poisson arrivals at `rate`.
fn fixed_count_schedule(rng: &mut ChaChaRng, rate: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

fn latencies(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(Timing::latency_ms).collect()
}

fn p(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    tail(&sorted, q).unwrap_or(f64::NAN)
}

/// Counter growth from `before` to `after`.
pub fn since(after: &StatsReport, before: &StatsReport) -> StatsReport {
    StatsReport {
        queries: after.queries - before.queries,
        errors: after.errors - before.errors,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_hit_ratio: after.cache_hit_ratio,
        connections: after.connections - before.connections,
    }
}

/// Shuts the server down, then checks replies against the naive kernels
/// and the counter growth since `before` against what was sent.
pub fn finish(
    served: Served,
    load: &Load,
    before: &StatsReport,
    outcome: &mut Outcome,
) -> StatsReport {
    let Served { state, handle } = served;
    if let Err(e) = handle.shutdown() {
        outcome.record(Err(format!("serve: shutdown: {e}")));
    }
    let stats = since(&state.stats_report(), before);
    for failure in verify_naive(state.analyzer(), &load.seen.replies, sys::nproc()) {
        outcome.fail(failure);
    }
    outcome.record(balance(
        &stats,
        &Sent {
            queries: load.seen.sent,
            connections: load.seen.connections,
        },
    ));
    stats
}

/// The traced serve probe's parameters for the record.
pub fn probe_params_json(in_process_requests: usize) -> Json {
    let cards = |w: Vec<(&str, usize)>| {
        Json::Obj(
            w.into_iter()
                .map(|(k, n)| (k.to_string(), Json::U64(n as u64)))
                .collect(),
        )
    };
    Json::Obj(vec![
        (
            "server_workers".to_string(),
            Json::U64(SERVER_WORKERS as u64),
        ),
        (
            "in_process_requests".to_string(),
            Json::U64(in_process_requests as u64),
        ),
        ("session_rate_per_s".to_string(), Json::F64(SESSION_RATE)),
        (
            "session_requests".to_string(),
            Json::U64(PROBE_SESSION_REQUESTS as u64),
        ),
        ("oneshot_rate_per_s".to_string(), Json::F64(ONESHOT_RATE)),
        (
            "oneshot_generators".to_string(),
            Json::U64(ONESHOT_GENERATORS),
        ),
        ("oneshot_s".to_string(), Json::F64(PROBE_ONESHOT_SECONDS)),
        (
            "class_cards_per_1000".to_string(),
            cards(CLASS_WEIGHTS.iter().map(|(c, n)| (c.name(), *n)).collect()),
        ),
        (
            "section_cards_per_100".to_string(),
            cards(
                SECTION_WEIGHTS
                    .iter()
                    .map(|(s, n)| (s.name(), *n))
                    .collect(),
            ),
        ),
        (
            "pool".to_string(),
            cards(POOL.iter().map(|(c, n)| (c.name(), *n)).collect()),
        ),
    ])
}

/// In-process costs of one request class.
#[derive(Default)]
struct ClassCosts {
    handle_us: Vec<f64>,
    miss_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    hits: u64,
}

/// The traced probe of the serve layers: `ServeState::new` and
/// `IdDict::from_index` timed, then the seeded request sequence replayed
/// in-process through `Request::decode`, `ServeState::answer` and
/// `Response::encode` (a span each, sharing the request's id), then a
/// short loopback load whose latencies, less that compute time, give the
/// transport and accept-wait shares.
pub fn probe(
    corpus: &Corpus,
    seed: u64,
    requests: usize,
    expected: &Expected,
    t: &mut Tracer,
) -> (Metrics, Outcome) {
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    let config = AnalyzerConfig::for_corpus(corpus).with_workers(0);
    let analyzer = Analyzer::new(corpus.clone(), config);
    let state = Arc::new(t.span("serve.state", |_| ServeState::new(analyzer)));
    let dict = t.span("filter.dict", |_| {
        rtbh::core::filter::IdDict::from_index(state.analyzer().index())
    });
    std::hint::black_box(dict);
    m.median("serve.state_s", "s", t.secs("serve.state"));
    m.median("filter.dict_s", "s", t.secs("filter.dict"));

    let mix = Mix::new(state.analyzer(), seed);
    let mut stream = mix.stream(seed, 4, true);
    let mut per: HashMap<Class, ClassCosts> = HashMap::new();
    let mut all_us = Vec::new();
    let mut seen = Seen::default();
    for i in 0..requests {
        let request = stream.next_request();
        let payload = request.encode();
        let hits = state.stats.cache_hits.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let reply = t.span_req("serve.request", Some(i as u64), |t| {
            let decoded = t.span_req("serve.decode", Some(i as u64), |_| {
                Request::decode(&payload)
            });
            let decoded = decoded.map_err(|e| format!("serve: decode: {e}"))?;
            let (response, _) =
                t.span_req("serve.answer", Some(i as u64), |_| state.answer(decoded));
            let bytes = t.span_req("serve.encode", Some(i as u64), |_| response.encode());
            Ok::<_, String>((response, bytes.len()))
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let hit = state.stats.cache_hits.load(Ordering::Relaxed) > hits;
        let entry = per.entry(Class::of(&request)).or_default();
        entry.handle_us.push(us);
        if hit {
            entry.hits += 1;
        } else {
            entry.miss_us.push(us);
        }
        all_us.push(us);
        let (response, len) = match reply {
            Ok(x) => x,
            Err(e) => {
                outcome.record(Err(e));
                continue;
            }
        };
        entry.reply_bytes.push(len as f64);
        outcome.record(seen.check(&request, Ok(response), expected));
    }
    for class in Class::ALL {
        let ClassCosts {
            handle_us: handle,
            miss_us: miss,
            reply_bytes: bytes,
            hits,
        } = per.remove(&class).unwrap_or_default();
        let n = handle.len() as f64;
        let c = class.name();
        m.median(&format!("serve.{c}.handle_us"), "us", handle);
        m.median(&format!("serve.{c}.miss_us"), "us", miss);
        m.median(&format!("serve.{c}.reply_bytes"), "bytes", bytes);
        m.value(
            &format!("lru.{c}.hit_ratio"),
            "ratio",
            ratio(hits as f64, n),
        );
    }
    let compute_us = Summary::of(&all_us).map_or(0.0, |s| s.median);
    for failure in verify_naive(state.analyzer(), &seen.replies, sys::nproc()) {
        outcome.fail(failure);
    }

    // Loopback: both generators against a server on the same state.
    let handle = match start(&state) {
        Ok(h) => h,
        Err(e) => {
            outcome.record(Err(e));
            return (m, outcome);
        }
    };
    let stats0 = state.stats_report();
    let plan = Plan {
        session_requests: PROBE_SESSION_REQUESTS,
        oneshot: PROBE_ONESHOT_SECONDS,
    };
    let load = t.span("serve.load", |_| {
        load(handle.addr(), &mix, seed, plan, expected, &mut outcome)
    });
    let served = Served { state, handle };
    let stats = finish(served, &load, &stats0, &mut outcome);
    let session = latencies(&load.session);
    let oneshot = latencies(&load.oneshot);
    let med = |x: &[f64]| Summary::of(x).map_or(0.0, |s| s.median);
    m.value("serve.transport_us", "us", med(&session) * 1e3 - compute_us);
    m.value(
        "serve.oneshot_wait_ms",
        "ms",
        med(&oneshot) - compute_us / 1e3,
    );
    m.value("serve.cpu_share", "ratio", load.cpu_share);
    m.value("serve.queries", "count", stats.queries as f64);
    m.value("serve.errors", "count", stats.errors as f64);
    m.value("serve.connections", "count", stats.connections as f64);
    m.value(
        "gen.session_lateness_p99_ms",
        "ms",
        p(&generator_lateness_ms(&load.session), 0.99),
    );
    m.value(
        "gen.oneshot_lateness_p90_ms",
        "ms",
        p(&generator_lateness_ms(&load.oneshot), 0.9),
    );
    (m, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(queries: u64, hits: u64, misses: u64, connections: u64) -> StatsReport {
        StatsReport {
            queries,
            errors: 0,
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_ratio: 0.0,
            connections,
        }
    }

    #[test]
    fn balanced_counters_pass_and_unbalanced_ones_fail() {
        let sent = Sent {
            queries: 100,
            connections: 3,
        };
        assert_eq!(balance(&stats(100, 60, 40, 3), &sent), Ok(()));
        for bad in [
            stats(99, 60, 40, 3),
            stats(100, 60, 39, 3),
            stats(100, 60, 40, 4),
            StatsReport {
                errors: 1,
                ..stats(100, 60, 40, 3)
            },
        ] {
            let err = balance(&bad, &sent).unwrap_err();
            assert!(err.starts_with("serve: stats unbalanced"), "{err}");
        }
    }

    #[test]
    fn the_mix_is_seeded_stratified_and_checked_against_naive_kernels() {
        let corpus = rtbh::sim::run(&rtbh::sim::ScenarioConfig::tiny()).corpus;
        let analyzer = Analyzer::with_defaults(corpus.clone());
        let mix = Mix::new(&analyzer, 9);
        let draw = |m: &Mix| {
            let mut s = m.stream(9, 1, true);
            (0..1000).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        let a = draw(&mix);
        assert_eq!(a, draw(&Mix::new(&analyzer, 9)), "same seed, same requests");
        for (class, n) in CLASS_WEIGHTS {
            assert_eq!(a.iter().filter(|r| Class::of(r) == class).count(), n);
        }

        // A live server's replies pass every check; counters balance.
        let state = Arc::new(ServeState::new(analyzer));
        let handle = start(&state).unwrap();
        let expected = Expected::new(state.report());
        let mut outcome = Outcome::default();
        let plan = Plan {
            session_requests: 200,
            oneshot: 0.5,
        };
        let before = state.stats_report();
        let load = load(handle.addr(), &mix, 9, plan, &expected, &mut outcome);
        finish(Served { state, handle }, &load, &before, &mut outcome);
        assert_eq!(outcome.failed, 0, "{:?}", outcome.messages);
        assert!(load.seen.replies.len() > 50);
    }
}
