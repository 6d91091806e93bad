//! Corpus-backed tests of the `serve` module: the fast query kernels
//! against their naive references, the engine's byte-identity with the
//! batch serialization, and the live TCP server end to end, hostile peers
//! included (these need a simulator corpus, so they live outside the
//! crate — `rtbh-sim` is a dev-dependency that itself depends on
//! `rtbh-core`, and the two copies only type-unify in an external test
//! crate).

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rtbh_core::filter::{filter_aggregate_naive, FilterQuery, Predicate};
use rtbh_core::pipeline::{Analyzer, AnalyzerConfig};
use rtbh_core::serve::{
    prefix_slice_naive, section_json, window_aggregate, window_aggregate_naive, Action, Client,
    Request, Response, Section, ServeOptions, ServeState, Server, ServerHandle, ERR_MALFORMED,
    ERR_NOT_FOUND, MAX_CONNECTIONS, PEER_DEADLINE, REQUEST_MAX,
};
use rtbh_net::frame;
use rtbh_net::Prefix;

fn tiny_state() -> Arc<ServeState> {
    let out = rtbh_sim::run(&rtbh_sim::ScenarioConfig::tiny());
    let config = AnalyzerConfig::for_corpus(&out.corpus).with_workers(2);
    Arc::new(ServeState::new(Analyzer::new(out.corpus, config)))
}

#[test]
fn window_kernel_matches_naive_reference_on_a_real_corpus() {
    let state = tiny_state();
    let cols = state.analyzer().columns();
    let period = state.analyzer().corpus().period;
    let (start, end) = (period.start.as_millis(), period.end.as_millis());
    let span = end - start;
    let mut windows = vec![
        (start, end),
        (start, start),        // empty
        (end, start),          // inverted
        (start - 1000, start), // before the corpus
        (end, end + 1000),     // after the corpus
        (i64::MIN + 1, i64::MAX),
    ];
    // Sliding and nested windows at various alignments.
    for k in 0..32 {
        let lo = start + span * k / 32;
        windows.push((lo, lo + span / 16));
        windows.push((lo, lo + 1));
        windows.push((lo - 7, lo + span / 5 + 13));
    }
    for (s, e) in windows {
        assert_eq!(
            window_aggregate(cols, s, e),
            window_aggregate_naive(cols, s, e),
            "window [{s}, {e}) diverged"
        );
    }
    // Sanity: the whole-corpus window sees every sample.
    let whole = window_aggregate(cols, start, end);
    assert_eq!(whole.samples, cols.len() as u64);
    assert!(whole.dropped_packets > 0);
    assert!(whole.explained_packets <= whole.dropped_packets);
}

#[test]
fn prefix_slice_matches_naive_reference_for_every_event_prefix() {
    let state = tiny_state();
    let index = state.analyzer().index();
    let cols = state.analyzer().columns();
    let period = state.analyzer().corpus().period;
    let (start, end) = (period.start.as_millis(), period.end.as_millis());
    let mid = start + (end - start) / 2;
    let mut sliced = 0u64;
    for &prefix in index.prefixes() {
        for (s, e) in [
            (start, end),
            (start, mid),
            (mid, end),
            (mid, mid),
            (end, start),
        ] {
            let naive = prefix_slice_naive(index, cols, prefix, s, e).unwrap();
            let request = Request::Prefix {
                prefix,
                start_ms: s,
                end_ms: e,
            };
            match state.answer(request) {
                (Response::Ok(body), Action::Continue) => assert_eq!(
                    body,
                    rtbh_json::to_vec_pretty(&naive),
                    "prefix {prefix} window [{s}, {e}) diverged"
                ),
                other => panic!("prefix {prefix} errored: {other:?}"),
            }
            sliced += naive.samples;
        }
    }
    assert!(sliced > 0, "no prefix saw any sample — vacuous test");
    // Unknown prefixes are NOT_FOUND, not a panic.
    let unknown: Prefix = "198.18.255.0/30".parse().unwrap();
    assert!(prefix_slice_naive(index, cols, unknown, start, end).is_none());
    let request = Request::Prefix {
        prefix: unknown,
        start_ms: start,
        end_ms: end,
    };
    match state.answer(request) {
        (Response::Err { code, .. }, Action::Continue) => assert_eq!(code, ERR_NOT_FOUND),
        other => panic!("unknown prefix got {other:?}"),
    }
}

#[test]
fn engine_answers_match_batch_serialization_and_cache() {
    let state = tiny_state();
    for section in Section::ALL {
        let (response, action) = state.answer(Request::Report(section));
        assert_eq!(action, Action::Continue);
        match response {
            Response::Ok(body) => {
                assert_eq!(body, section_json(state.report(), section), "{section:?}")
            }
            other => panic!("section {section:?} errored: {other:?}"),
        }
    }
    // Same queries again: every one a cache hit.
    let misses_before = state.stats.cache_misses.load(Ordering::Relaxed);
    for section in Section::ALL {
        let (response, _) = state.answer(Request::Report(section));
        assert!(matches!(response, Response::Ok(_)));
    }
    assert_eq!(
        state.stats.cache_misses.load(Ordering::Relaxed),
        misses_before,
        "repeat queries must not miss"
    );
    assert!(state.stats.cache_hits.load(Ordering::Relaxed) >= Section::ALL.len() as u64);
    let stats = state.stats_report();
    assert!(stats.cache_hit_ratio > 0.0);

    // Malformed payloads get an error reply and count as errors.
    let (reply, action) = state.handle(&[0xFF, 0xFE]);
    assert_eq!(action, Action::Continue);
    assert!(matches!(
        Response::decode(&reply),
        Some(Response::Err {
            code: ERR_MALFORMED,
            ..
        })
    ));
    assert!(state.stats.errors.load(Ordering::Relaxed) > 0);
}

#[test]
fn filter_answers_match_naive_and_key_the_cache_by_canonical_fingerprint() {
    let state = tiny_state();
    let index = state.analyzer().index();
    let cols = state.analyzer().columns();
    let period = state.analyzer().corpus().period;
    let (start, end) = (period.start.as_millis(), period.end.as_millis());
    let mid = start + (end - start) / 2;
    let prefix = index.prefixes()[0];

    let udp = Predicate::parse("protocol=17").unwrap();
    let dns = Predicate::parse("dst_port=53").unwrap();
    let big = Predicate::parse("packet_len>=700").unwrap();
    let queries = [
        FilterQuery::matching(vec![]),
        FilterQuery::matching(vec![udp]),
        FilterQuery::matching(vec![udp, dns]),
        FilterQuery::matching(vec![udp, big]).with_window(start, mid),
        FilterQuery::matching(vec![dns]).with_prefix(prefix),
        FilterQuery::matching(vec![]).with_window(mid, mid), // empty window
    ];
    for query in &queries {
        let pid = query
            .prefix
            .map(|p| index.prefix_id(p).expect("known prefix") as u32);
        let expected = rtbh_json::to_vec_pretty(&filter_aggregate_naive(cols, pid, query));
        match state.answer(Request::Filter(query.clone())) {
            (Response::Ok(body), Action::Continue) => {
                assert_eq!(body, expected, "{query:?} diverged from naive")
            }
            other => panic!("{query:?} errored: {other:?}"),
        }
    }

    // Permuted and duplicated predicate lists canonicalize to the same
    // fingerprint: re-asking must be pure cache hits.
    let misses_before = state.stats.cache_misses.load(Ordering::Relaxed);
    let hits_before = state.stats.cache_hits.load(Ordering::Relaxed);
    let permuted = [
        FilterQuery::matching(vec![dns, udp]),
        FilterQuery::matching(vec![udp, dns, udp]),
        FilterQuery::matching(vec![big, udp]).with_window(start, mid),
    ];
    for query in &permuted {
        assert!(matches!(
            state.answer(Request::Filter(query.clone())),
            (Response::Ok(_), Action::Continue)
        ));
    }
    assert_eq!(
        state.stats.cache_misses.load(Ordering::Relaxed),
        misses_before,
        "permuted/duplicated predicates must hit the canonical entry"
    );
    assert_eq!(
        state.stats.cache_hits.load(Ordering::Relaxed),
        hits_before + permuted.len() as u64
    );

    // Unknown prefixes are NOT_FOUND before any scan.
    let unknown: Prefix = "198.18.255.0/30".parse().unwrap();
    match state.answer(Request::Filter(
        FilterQuery::matching(vec![]).with_prefix(unknown),
    )) {
        (Response::Err { code, .. }, Action::Continue) => assert_eq!(code, ERR_NOT_FOUND),
        other => panic!("unknown prefix got {other:?}"),
    }
}

#[test]
fn filter_cache_evicts_least_recently_used_fingerprints() {
    let out = rtbh_sim::run(&rtbh_sim::ScenarioConfig::tiny());
    let config = AnalyzerConfig::for_corpus(&out.corpus).with_workers(2);
    let state = ServeState::with_cache_capacity(Analyzer::new(out.corpus, config), 2);

    let port =
        |p: u16| FilterQuery::matching(vec![Predicate::parse(&format!("dst_port={p}")).unwrap()]);
    let ask = |q: &FilterQuery| {
        assert!(matches!(
            state.answer(Request::Filter(q.clone())),
            (Response::Ok(_), Action::Continue)
        ));
    };
    let misses = || state.stats.cache_misses.load(Ordering::Relaxed);

    ask(&port(1)); // cache: [1]
    ask(&port(2)); // cache: [1, 2]
    assert_eq!(misses(), 2);
    ask(&port(1)); // hit; cache: [2, 1]
    assert_eq!(misses(), 2);
    ask(&port(3)); // evicts 2; cache: [1, 3]
    assert_eq!(misses(), 3);
    ask(&port(2)); // must recompute; evicts 1
    assert_eq!(misses(), 4, "evicted fingerprint must miss again");
    ask(&port(3)); // still resident
    assert_eq!(misses(), 4);
}

#[test]
fn server_serves_concurrent_clients_and_drains_on_shutdown() {
    let state = tiny_state();
    let expected_full = section_json(state.report(), Section::Full);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&state), ServeOptions::default())
        .expect("bind ephemeral");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for _ in 0..4 {
            let expected = expected_full.clone();
            joins.push(s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..3 {
                    match client.request(&Request::Report(Section::Full)).unwrap() {
                        Response::Ok(body) => assert_eq!(body, expected),
                        other => panic!("unexpected reply {other:?}"),
                    }
                }
                // A hostile frame gets an error reply...
                match client.request_raw(&[0xAB; 7]).unwrap() {
                    Response::Err { code, .. } => assert_eq!(code, ERR_MALFORMED),
                    other => panic!("hostile frame got {other:?}"),
                }
                // ...and the connection keeps working afterwards.
                assert!(matches!(
                    client.request(&Request::Ping).unwrap(),
                    Response::Ok(_)
                ));
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
    });

    // Protocol-level shutdown: reply first, then drain and exit.
    let mut client = Client::connect(addr).expect("connect for shutdown");
    assert!(matches!(
        client.request(&Request::Shutdown).unwrap(),
        Response::Ok(_)
    ));
    handle.shutdown().expect("drain");
    // 4 clients × (3 reports + 1 ping) answered, 4 hostile frames
    // answered with errors, and the shutdown request.
    assert_balanced(&state, 4 * 4 + 1, 4);
    assert!(
        Client::connect(addr).is_err()
            || Client::connect(addr)
                .and_then(|mut c| {
                    c.request(&Request::Ping)
                        .map_err(|_| io::Error::other("closed"))
                })
                .is_err(),
        "server must stop accepting after shutdown"
    );
}

/// Regression for the hot-reload direction (ROADMAP item 2): every other
/// test in this suite serves one sealed corpus forever. A reloading
/// deployment swaps a fresh `Arc<ServeState>` under concurrent readers —
/// a reader that grabbed its snapshot must keep seeing ONE consistent
/// chunk set end to end, never a mix of old report bytes and new columns.
#[test]
fn arc_swapped_snapshots_see_a_consistent_chunk_set() {
    use std::sync::RwLock;

    // Two distinguishable corpora (different seeds → different digests,
    // sample counts and report bytes).
    let build = |seed: u64| -> Arc<ServeState> {
        let mut config = rtbh_sim::ScenarioConfig::tiny();
        config.seed = seed;
        let out = rtbh_sim::run(&config);
        let config = AnalyzerConfig::for_corpus(&out.corpus).with_workers(2);
        Arc::new(ServeState::new(Analyzer::new(out.corpus, config)))
    };
    let states = [build(1), build(2)];
    // Per-state expectation: (full-report bytes, whole-period window
    // aggregate, total samples) — three facts that only agree when they
    // come from the same snapshot.
    let expected: Vec<_> = states
        .iter()
        .map(|state| {
            let cols = state.analyzer().columns();
            let period = state.analyzer().corpus().period;
            let (s, e) = (period.start.as_millis(), period.end.as_millis());
            (
                section_json(state.report(), Section::Full),
                window_aggregate(cols, s, e),
                cols.len() as u64,
            )
        })
        .collect();
    assert_ne!(expected[0].0, expected[1].0, "corpora must differ");

    let current: RwLock<Arc<ServeState>> = RwLock::new(Arc::clone(&states[0]));
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..4 {
            joins.push(scope.spawn(|| {
                for _ in 0..200 {
                    // Snapshot: clone the Arc out of the lock, then answer
                    // everything from the snapshot alone.
                    let snap = Arc::clone(&current.read().expect("reader lock"));
                    let cols = snap.analyzer().columns();
                    let period = snap.analyzer().corpus().period;
                    let (s, e) = (period.start.as_millis(), period.end.as_millis());
                    let report = section_json(snap.report(), Section::Full);
                    let window = window_aggregate(cols, s, e);
                    let samples = cols.len() as u64;
                    let matched = expected
                        .iter()
                        .any(|(rep, win, n)| report == *rep && window == *win && samples == *n);
                    assert!(
                        matched,
                        "snapshot mixed chunk sets: {samples} samples with a \
                         report from a different corpus"
                    );
                    assert_eq!(
                        window.samples, samples,
                        "whole-period window must see the snapshot's own chunks"
                    );
                }
            }));
        }
        // Writer: swap the served state back and forth while readers run.
        joins.push(scope.spawn(|| {
            for i in 0..400usize {
                let next = Arc::clone(&states[i % 2]);
                *current.write().expect("writer lock") = next;
            }
        }));
        for j in joins {
            j.join().expect("snapshot thread");
        }
    });
}

/// A stream-finalized analyzer must serve the exact bytes the batch-built
/// one serves — the serve layer cannot tell how its chunks were ingested.
#[test]
fn stream_finalized_state_serves_batch_identical_bytes() {
    use rtbh_core::stream::{StreamConfig, StreamDriver};

    let out = rtbh_sim::run(&rtbh_sim::ScenarioConfig::tiny());
    let config = AnalyzerConfig::for_corpus(&out.corpus).with_workers(2);
    let batch = Arc::new(ServeState::new(Analyzer::new(out.corpus.clone(), config)));
    let stream_config = StreamConfig {
        analyzer: config,
        ..StreamConfig::for_corpus(&out.corpus)
    };
    let run = StreamDriver::new(4096).replay(&out.corpus, stream_config);
    let streamed = Arc::new(ServeState::new(run.analyzer));
    for section in Section::ALL {
        assert_eq!(
            section_json(streamed.report(), section),
            section_json(batch.report(), section),
            "section {section:?} diverged between stream- and batch-built state"
        );
    }
    let period = batch.analyzer().corpus().period;
    let (s, e) = (period.start.as_millis(), period.end.as_millis());
    assert_eq!(
        window_aggregate(streamed.analyzer().columns(), s, e),
        window_aggregate(batch.analyzer().columns(), s, e),
        "window kernels diverged between stream- and batch-built chunks"
    );
}

#[test]
fn oversized_request_frames_get_an_error_reply() {
    let state = tiny_state();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&state), ServeOptions::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(addr).unwrap();
    match client.request_raw(&vec![0u8; REQUEST_MAX + 1]) {
        Ok(Response::Err { code, .. }) => assert_eq!(code, ERR_MALFORMED),
        other => panic!("oversized frame got {other:?}"),
    }
    // The error reply counts as one query and one error.
    let stats = state.stats_report();
    assert_eq!((stats.queries, stats.errors), (1, 1));
    handle.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Hostile peers. Each case bounds its own waits, so a wedged server fails
// the case instead of hanging the suite.
// ---------------------------------------------------------------------------

/// A server with two workers: two stuck peers would hold every worker of
/// a pool that pinned one worker per connection.
fn spawn_two_workers(state: &Arc<ServeState>) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        Arc::clone(state),
        ServeOptions { workers: 2 },
    )
    .and_then(Server::spawn)
    .expect("spawn server")
}

/// Sends `request` on `stream` and reads the reply (bounded by the
/// stream's read timeout).
fn ask_on(stream: &mut TcpStream, request: &Request) -> Result<Response, String> {
    frame::write_frame(stream, &request.encode()).map_err(|e| format!("send: {e}"))?;
    match frame::read_frame(stream, rtbh_core::serve::RESPONSE_MAX) {
        Ok(Some(payload)) => Response::decode(&payload).ok_or_else(|| "bad reply".to_string()),
        Ok(None) => Err("closed without a reply".to_string()),
        Err(e) => Err(format!("no reply: {e}")),
    }
}

/// Sends `request` on a fresh connection and waits at most `limit` for
/// the reply.
fn ask(addr: SocketAddr, request: &Request, limit: Duration) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(limit)).expect("read timeout");
    ask_on(&mut stream, request)
}

/// Stops the server and fails the case unless the drain ends within
/// `limit`. On a hang the stopping thread is left behind: the case must
/// fail, not wedge the suite.
fn shutdown_within(handle: ServerHandle, limit: Duration) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.shutdown());
    });
    match rx.recv_timeout(limit) {
        Ok(drained) => drained.expect("drain"),
        Err(_) => panic!("shutdown did not return within {limit:?}"),
    }
}

/// Every counted query got a reply or a counted error: the clients read
/// `ok` success replies and `err` error replies, and the server counted
/// exactly those.
fn assert_balanced(state: &ServeState, ok: u64, err: u64) {
    let stats = state.stats_report();
    assert_eq!(
        (stats.queries, stats.errors),
        (ok + err, err),
        "counters do not balance: {stats:?}"
    );
}

const PING_LIMIT: Duration = Duration::from_secs(1);
const DRAIN_LIMIT: Duration = Duration::from_secs(PEER_DEADLINE.as_secs() + 2);

#[test]
fn idle_connections_do_not_delay_a_ping() {
    let state = tiny_state();
    let handle = spawn_two_workers(&state);
    let idle: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(handle.addr()).expect("connect idle peer"))
        .collect();
    let reply = ask(handle.addr(), &Request::Ping, PING_LIMIT);
    assert!(
        matches!(reply, Ok(Response::Ok(_))),
        "ping behind two idle peers: {reply:?}"
    );
    // The idle peers stay connected through the drain.
    shutdown_within(handle, DRAIN_LIMIT);
    drop(idle);
    assert_balanced(&state, 1, 0);
    assert_eq!(state.stats_report().connections, 3);
}

#[test]
fn stalled_pipeliners_block_neither_a_ping_nor_the_drain() {
    let state = tiny_state();
    // 40 replies per peer must outgrow what the socket buffers absorb,
    // or nothing stalls.
    let full = section_json(state.report(), Section::Full).len();
    assert!(40 * full > 32 << 20, "report full is only {full} bytes");
    let handle = spawn_two_workers(&state);
    let request = Request::Report(Section::Full).encode();
    let stalled: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(handle.addr()).expect("connect pipeliner");
            for _ in 0..40 {
                frame::write_frame(&mut stream, &request).expect("pipeline a request");
            }
            stream
        })
        .collect();
    // Wait until the server is writing replies to both (peek consumes
    // nothing: the peers still read no byte). The first reply serializes
    // the whole report, which a debug build takes its time over.
    for stream in &stalled {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let peeked = stream.peek(&mut [0u8; 1]);
        assert!(matches!(peeked, Ok(1)), "no reply started: {peeked:?}");
    }
    let reply = ask(handle.addr(), &Request::Ping, PING_LIMIT);
    assert!(
        matches!(reply, Ok(Response::Ok(_))),
        "ping behind two stalled pipeliners: {reply:?}"
    );
    // Both pipeliners are still connected and still not reading.
    shutdown_within(handle, DRAIN_LIMIT);
    drop(stalled);
    // Their replies could not all be delivered, so the counters cannot
    // balance against what the peers read; none of them was an error.
    assert_eq!(state.stats_report().errors, 0);
}

#[test]
fn a_half_closed_client_still_gets_its_reply() {
    let state = tiny_state();
    let handle = spawn_two_workers(&state);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(PING_LIMIT))
        .expect("read timeout");
    frame::write_frame(&mut stream, &Request::Ping.encode()).expect("send ping");
    stream.shutdown(Shutdown::Write).expect("half-close");
    match frame::read_frame(&mut stream, REQUEST_MAX) {
        Ok(Some(payload)) => assert!(matches!(Response::decode(&payload), Some(Response::Ok(_)))),
        other => panic!("half-closed client got {other:?}"),
    }
    // Then the server sees the end of the stream and closes its side.
    assert!(matches!(
        frame::read_frame(&mut stream, REQUEST_MAX),
        Ok(None)
    ));
    shutdown_within(handle, DRAIN_LIMIT);
    assert_balanced(&state, 1, 0);
}

#[test]
fn a_torn_length_prefix_is_not_counted_and_the_next_client_is_served() {
    let state = tiny_state();
    let handle = spawn_two_workers(&state);
    let mut torn = TcpStream::connect(handle.addr()).expect("connect");
    torn.write_all(&[0, 0]).expect("send half a length prefix");
    drop(torn);
    let reply = ask(handle.addr(), &Request::Ping, PING_LIMIT);
    assert!(
        matches!(reply, Ok(Response::Ok(_))),
        "client after a torn frame: {reply:?}"
    );
    shutdown_within(handle, DRAIN_LIMIT);
    assert_balanced(&state, 1, 0);
    assert_eq!(state.stats_report().connections, 2);
}

#[test]
fn connections_past_the_cap_are_closed_unanswered_and_not_counted() {
    let state = tiny_state();
    let handle = spawn_two_workers(&state);
    let addr = handle.addr();
    let mut open: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Once the server has counted all of them, the next four are past the
    // cap whatever order the kernel queues them in.
    let deadline = Instant::now() + Duration::from_secs(5);
    while state.stats_report().connections < MAX_CONNECTIONS as u64 {
        assert!(
            Instant::now() < deadline,
            "connections under the cap not accepted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for _ in 0..4 {
        let mut extra = TcpStream::connect(addr).expect("connect past the cap");
        extra
            .set_read_timeout(Some(PING_LIMIT))
            .expect("read timeout");
        let mut byte = [0u8; 1];
        let read = extra.read(&mut byte);
        assert!(
            matches!(read, Ok(0)),
            "a connection past the cap must read EOF, got {read:?}"
        );
    }
    assert_eq!(state.stats_report().connections, MAX_CONNECTIONS as u64);
    // A connection under the cap is served.
    let last = open.last_mut().expect("open connections");
    last.set_read_timeout(Some(PING_LIMIT))
        .expect("read timeout");
    let reply = ask_on(last, &Request::Ping);
    assert!(matches!(reply, Ok(Response::Ok(_))), "{reply:?}");
    // Once one connection closes, a new client gets its slot. The server
    // frees the slot when it reads the close, so retry until then.
    drop(open.swap_remove(0));
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match ask(addr, &Request::Ping, PING_LIMIT) {
            Ok(Response::Ok(_)) => break,
            other => assert!(
                Instant::now() < deadline,
                "no slot freed after a close: {other:?}"
            ),
        }
    }
    shutdown_within(handle, DRAIN_LIMIT);
    drop(open);
    assert_balanced(&state, 2, 0);
    assert_eq!(state.stats_report().connections, MAX_CONNECTIONS as u64 + 1);
}
