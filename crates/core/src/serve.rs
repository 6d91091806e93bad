//! The `rtbhd` query protocol and multi-client analysis server.
//!
//! The batch pipeline answers one question per process: load a corpus,
//! run [`Analyzer::full`], print the report. An IXP operator asks the
//! same questions *interactively and repeatedly* — "what hit this prefix
//! during that window?", "re-show me the acceptance section" — so this
//! module promotes the analyzer into a long-running daemon serving
//! concurrent queries over the shared immutable store the sealed-chunk
//! ABI guarantees is safe to read from any number of threads at once.
//!
//! # Wire protocol
//!
//! Frames are length-prefixed ([`rtbh_net::frame`]): a big-endian `u32`
//! payload length, then the payload. Request payloads are one tag byte
//! plus a body; response payloads are one status byte (`0` ok, `1`
//! error) plus either UTF-8 JSON (ok) or a `u16` error code and a UTF-8
//! message (error):
//!
//! ```text
//! request  := u32 len | tag u8 | body
//!   tag 1 Ping      body ()                      -> "pong"
//!   tag 2 Info      body ()                      -> corpus summary JSON
//!   tag 3 Report    body (section u8)            -> report-section JSON
//!   tag 4 Window    body (start i64, end i64)    -> FilterAggregate JSON
//!   tag 5 Prefix    body (bits u32, len u8,
//!                         start i64, end i64)    -> PrefixSlice JSON
//!   tag 6 Stats     body ()                      -> server counters JSON
//!   tag 7 Shutdown  body ()                      -> "draining", then exit
//!   tag 8 Filter    body (start i64, end i64,
//!                         present u8, bits u32, plen u8,
//!                         npreds u8,
//!                         npreds * (col u8, op u8, value u32))
//!                                                -> FilterAggregate JSON
//! response := u32 len | 0 u8 | json bytes
//!           | u32 len | 1 u8 | code u16 | utf-8 message
//! ```
//!
//! Every body's size is determined by the tag (for `Filter`, by the
//! `npreds` count at a fixed offset, capped at
//! [`MAX_PREDICATES`]), so the decoder
//! validates the exact length before touching a byte: hostile or
//! truncated frames yield a clean error reply ([`Response::Err`]), never
//! a panic, and never kill the connection loop (pinned by the
//! `fuzz_serve` and `fuzz_filter` suites). Request frames are capped at
//! [`REQUEST_MAX`] bytes and response frames at [`RESPONSE_MAX`].
//!
//! # Snapshots and determinism
//!
//! The server owns one [`ServeState`]: the prepared [`Analyzer`] (sealed
//! chunks, sample index, time buckets) plus the batch [`FullReport`]
//! computed once at startup. All of it is immutable after construction,
//! so a "per-query snapshot" is just an `Arc` clone — zero copies, no
//! locks on the read path — and every response is *definitionally*
//! byte-identical to the batch answer the bench cross-checks against.
//! The only mutable state is the [`Lru`] response cache (one mutex,
//! keyed by `(query kind, window, prefix-id)` for the fixed-size queries
//! and by the canonical predicate fingerprint for `Filter` — see
//! [`FilterQuery::canonicalize`]) and the atomic counters behind the
//! `Stats` query.
//!
//! # Concurrency
//!
//! [`Server::run`] blocks in `accept` and gives each accepted connection
//! a thread of its own, up to [`MAX_CONNECTIONS`] open at once (past the
//! cap a socket is closed unanswered). An idle connection is a thread
//! parked in a blocking read: it holds no worker. `workers` bounds the
//! requests handled at once ([`shard::resolve_workers`] rule), not the
//! connections. Once a request frame's first byte arrives, the rest must
//! arrive within [`PEER_DEADLINE`], and the peer must take each reply
//! frame within [`PEER_DEADLINE`] of its first byte, so a peer that
//! trickles or never reads loses its connection instead of holding it.
//!
//! Stopping is one broadcast, [`Stopper::stop`], called by a `Shutdown`
//! request, [`ServerHandle::shutdown`] or a signal watcher. It shuts the
//! read half of every open socket, which ends every blocked read while
//! bytes already received stay readable and writes still work, then
//! self-connects to wake `accept`. Requests that already arrived are
//! answered; after each reply a connection that sees the stop closes,
//! and `run` returns once every connection thread has ended.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rtbh_net::cursor::{PutBytes, Reader};
use rtbh_net::frame::{self, FrameError};
use rtbh_net::{Ipv4Addr, Prefix, Timestamp};

use crate::columns::ColumnarFlows;
use crate::filter::{self, FilterAggregate, FilterQuery, Predicate, MAX_PREDICATES};
use crate::index::SampleIndex;
use crate::lru::Lru;
use crate::pipeline::{Analyzer, FullReport};
use crate::shard;

/// Hard cap on request frames. Every request body is fixed-size and tiny;
/// anything near this cap is hostile, not chatty.
pub const REQUEST_MAX: usize = 1024;

/// Hard cap on response frames (a full pretty-printed report on a large
/// corpus runs to megabytes; 64 MiB leaves headroom without letting a
/// compromised server exhaust a client).
pub const RESPONSE_MAX: usize = 64 << 20;

/// Error code: the request frame could not be decoded.
pub const ERR_MALFORMED: u16 = 1;
/// Error code: the request was well-formed but names an unknown entity
/// (report section, prefix).
pub const ERR_NOT_FOUND: u16 = 2;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A report section addressable over the wire (tag byte in `Report`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Section {
    /// The whole [`FullReport`].
    Full = 0,
    /// The abstract's headline numbers.
    Headline = 1,
    /// Cleaning report (§3.1).
    Clean = 2,
    /// Clock alignment (Fig. 2).
    Alignment = 3,
    /// Signaling load (Fig. 3).
    Load = 4,
    /// Drop provenance (§3.1).
    Provenance = 5,
    /// Visibility percentiles (Fig. 4).
    Visibility = 6,
    /// Acceptance analysis (Figs. 5–8).
    Acceptance = 7,
    /// Pre-event analysis (Figs. 11–13, Table 2).
    Preevents = 8,
    /// During-event traffic (§5.4, Table 3).
    Protocols = 9,
    /// Filtering potential (Figs. 14–15).
    Filtering = 10,
    /// Host classification (Figs. 16–17, Table 4).
    Hosts = 11,
    /// Collateral damage (Fig. 18).
    Collateral = 12,
    /// Final classification (Fig. 19).
    Classification = 13,
}

impl Section {
    /// Every section, in tag order.
    pub const ALL: [Section; 14] = [
        Section::Full,
        Section::Headline,
        Section::Clean,
        Section::Alignment,
        Section::Load,
        Section::Provenance,
        Section::Visibility,
        Section::Acceptance,
        Section::Preevents,
        Section::Protocols,
        Section::Filtering,
        Section::Hosts,
        Section::Collateral,
        Section::Classification,
    ];

    /// Decodes a section tag byte.
    pub fn from_u8(v: u8) -> Option<Section> {
        Section::ALL.get(v as usize).copied()
    }

    /// The CLI spelling (`rtbh query ADDR report <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Section::Full => "full",
            Section::Headline => "headline",
            Section::Clean => "clean",
            Section::Alignment => "alignment",
            Section::Load => "load",
            Section::Provenance => "provenance",
            Section::Visibility => "visibility",
            Section::Acceptance => "acceptance",
            Section::Preevents => "preevents",
            Section::Protocols => "protocols",
            Section::Filtering => "filtering",
            Section::Hosts => "hosts",
            Section::Collateral => "collateral",
            Section::Classification => "classification",
        }
    }

    /// Parses the CLI spelling.
    pub fn from_name(name: &str) -> Option<Section> {
        Section::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One query, as decoded from a request frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Corpus/server summary.
    Info,
    /// One section of the batch report.
    Report(Section),
    /// Aggregate over all samples with `start_ms <= at < end_ms`.
    Window {
        /// Window start (inclusive), epoch milliseconds.
        start_ms: i64,
        /// Window end (exclusive), epoch milliseconds.
        end_ms: i64,
    },
    /// Per-prefix drop provenance restricted to a window.
    Prefix {
        /// The blackholed prefix to slice on.
        prefix: Prefix,
        /// Window start (inclusive), epoch milliseconds.
        start_ms: i64,
        /// Window end (exclusive), epoch milliseconds.
        end_ms: i64,
    },
    /// Server counters (queries, cache hits/misses, connections).
    Stats,
    /// Graceful shutdown: answer, drain in-flight queries, exit.
    Shutdown,
    /// Predicate-pushdown aggregate: window × optional prefix ×
    /// column/flag conjuncts, evaluated by the masked filter kernels.
    Filter(FilterQuery),
}

const TAG_PING: u8 = 1;
const TAG_INFO: u8 = 2;
const TAG_REPORT: u8 = 3;
const TAG_WINDOW: u8 = 4;
const TAG_PREFIX: u8 = 5;
const TAG_STATS: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_FILTER: u8 = 8;

/// Fixed-size head of a `Filter` body: window (16) + prefix presence
/// flag (1) + prefix bits (4) + prefix length (1) + predicate count (1).
const FILTER_HEAD: usize = 23;
/// Bytes per encoded predicate: column u8, op u8, value u32.
const FILTER_PRED_BYTES: usize = 6;

/// Why a request payload failed to decode. Rendered into the error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload had no tag byte.
    Empty,
    /// The tag byte names no known request.
    UnknownTag(u8),
    /// The body length does not match the tag's fixed size.
    BadLength {
        /// The request tag.
        tag: u8,
        /// The fixed body size this tag requires.
        expected: usize,
        /// The body size actually received.
        got: usize,
    },
    /// The `Report` body names no known section.
    UnknownSection(u8),
    /// The `Prefix` body carries a length > 32.
    BadPrefix(u8),
    /// The `Filter` body declares more than
    /// [`MAX_PREDICATES`] predicates.
    TooManyPredicates(u8),
    /// The `Filter` predicate at this index has an unknown column/op
    /// code or an out-of-range value.
    BadPredicate(u8),
    /// The `Filter` body is structurally invalid (bad presence flag, or
    /// nonzero prefix bytes with the prefix absent).
    BadFilter(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "empty request payload"),
            Self::UnknownTag(t) => write!(f, "unknown request tag {t}"),
            Self::BadLength { tag, expected, got } => {
                write!(f, "tag {tag} body must be {expected} bytes, got {got}")
            }
            Self::UnknownSection(s) => write!(f, "unknown report section {s}"),
            Self::BadPrefix(l) => write!(f, "prefix length {l} exceeds 32"),
            Self::TooManyPredicates(n) => {
                write!(f, "{n} predicates exceed the limit of {MAX_PREDICATES}")
            }
            Self::BadPredicate(i) => write!(f, "predicate {i} is invalid"),
            Self::BadFilter(why) => write!(f, "malformed filter body: {why}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl Request {
    /// Encodes the request as a frame payload (tag byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        match self {
            Request::Ping => out.put_u8(TAG_PING),
            Request::Info => out.put_u8(TAG_INFO),
            Request::Report(section) => {
                out.put_u8(TAG_REPORT);
                out.put_u8(*section as u8);
            }
            Request::Window { start_ms, end_ms } => {
                out.put_u8(TAG_WINDOW);
                out.put_i64(*start_ms);
                out.put_i64(*end_ms);
            }
            Request::Prefix {
                prefix,
                start_ms,
                end_ms,
            } => {
                out.put_u8(TAG_PREFIX);
                out.put_u32(prefix.network().to_u32());
                out.put_u8(prefix.len());
                out.put_i64(*start_ms);
                out.put_i64(*end_ms);
            }
            Request::Stats => out.put_u8(TAG_STATS),
            Request::Shutdown => out.put_u8(TAG_SHUTDOWN),
            Request::Filter(query) => {
                out.put_u8(TAG_FILTER);
                filter_body_into(query, &mut out);
            }
        }
        out
    }

    /// Decodes a frame payload. Total: every body's size is determined by
    /// the tag (for `Filter`, by the capped predicate count at a fixed
    /// offset) and validated before any byte is read — hostile payloads
    /// produce a [`ProtoError`], never a panic.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let (&tag, body) = payload.split_first().ok_or(ProtoError::Empty)?;
        let expect = |n: usize| -> Result<(), ProtoError> {
            if body.len() == n {
                Ok(())
            } else {
                Err(ProtoError::BadLength {
                    tag,
                    expected: n,
                    got: body.len(),
                })
            }
        };
        match tag {
            TAG_PING => expect(0).map(|()| Request::Ping),
            TAG_INFO => expect(0).map(|()| Request::Info),
            TAG_REPORT => {
                expect(1)?;
                Section::from_u8(body[0])
                    .map(Request::Report)
                    .ok_or(ProtoError::UnknownSection(body[0]))
            }
            TAG_WINDOW => {
                expect(16)?;
                let mut r = Reader::new(body);
                Ok(Request::Window {
                    start_ms: r.get_i64(),
                    end_ms: r.get_i64(),
                })
            }
            TAG_PREFIX => {
                expect(21)?;
                let mut r = Reader::new(body);
                let bits = r.get_u32();
                let len = r.get_u8();
                let prefix =
                    Prefix::new(Ipv4Addr::from_u32(bits), len).ok_or(ProtoError::BadPrefix(len))?;
                Ok(Request::Prefix {
                    prefix,
                    start_ms: r.get_i64(),
                    end_ms: r.get_i64(),
                })
            }
            TAG_STATS => expect(0).map(|()| Request::Stats),
            TAG_SHUTDOWN => expect(0).map(|()| Request::Shutdown),
            TAG_FILTER => {
                if body.len() < FILTER_HEAD {
                    return Err(ProtoError::BadLength {
                        tag,
                        expected: FILTER_HEAD,
                        got: body.len(),
                    });
                }
                let npreds = body[FILTER_HEAD - 1];
                if npreds as usize > MAX_PREDICATES {
                    return Err(ProtoError::TooManyPredicates(npreds));
                }
                expect(FILTER_HEAD + FILTER_PRED_BYTES * npreds as usize)?;
                let mut r = Reader::new(body);
                let start_ms = r.get_i64();
                let end_ms = r.get_i64();
                let present = r.get_u8();
                let bits = r.get_u32();
                let plen = r.get_u8();
                let _ = r.get_u8(); // npreds, validated above
                let prefix = match present {
                    0 => {
                        if bits != 0 || plen != 0 {
                            return Err(ProtoError::BadFilter(
                                "absent prefix must encode zero bits and length",
                            ));
                        }
                        None
                    }
                    1 => Some(
                        Prefix::new(Ipv4Addr::from_u32(bits), plen)
                            .ok_or(ProtoError::BadPrefix(plen))?,
                    ),
                    _ => {
                        return Err(ProtoError::BadFilter("prefix presence flag must be 0 or 1"));
                    }
                };
                let mut predicates = Vec::with_capacity(npreds as usize);
                for i in 0..npreds {
                    let (col, op) = (r.get_u8(), r.get_u8());
                    let value = r.get_u32();
                    predicates.push(
                        Predicate::from_key(col, op, value).ok_or(ProtoError::BadPredicate(i))?,
                    );
                }
                Ok(Request::Filter(FilterQuery {
                    start_ms,
                    end_ms,
                    prefix,
                    predicates,
                }))
            }
            other => Err(ProtoError::UnknownTag(other)),
        }
    }
}

/// Writes a [`FilterQuery`] as a `Filter` request body (everything after
/// the tag byte). Also the cache fingerprint: encoding a *canonicalized*
/// query ([`FilterQuery::canonicalize`]) is injective — two queries share
/// bytes iff they ask the same question.
fn filter_body_into(query: &FilterQuery, out: &mut Vec<u8>) {
    out.put_i64(query.start_ms);
    out.put_i64(query.end_ms);
    match query.prefix {
        Some(prefix) => {
            out.put_u8(1);
            out.put_u32(prefix.network().to_u32());
            out.put_u8(prefix.len());
        }
        None => {
            out.put_u8(0);
            out.put_u32(0);
            out.put_u8(0);
        }
    }
    debug_assert!(query.predicates.len() <= MAX_PREDICATES);
    out.put_u8(query.predicates.len() as u8);
    for p in &query.predicates {
        let (col, op, value) = p.key();
        out.put_u8(col);
        out.put_u8(op);
        out.put_u32(value);
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One reply, as decoded from a response frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; the body is UTF-8 JSON.
    Ok(Vec<u8>),
    /// Failure; a code plus a human-readable message.
    Err {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Diagnostic message.
        message: String,
    },
}

impl Response {
    /// Encodes the response as a frame payload (status byte + body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Ok(body) => {
                let mut out = Vec::with_capacity(1 + body.len());
                out.put_u8(0);
                out.put_slice(body);
                out
            }
            Response::Err { code, message } => {
                let mut out = Vec::with_capacity(3 + message.len());
                out.put_u8(1);
                out.put_u16(*code);
                out.put_slice(message.as_bytes());
                out
            }
        }
    }

    /// Decodes a frame payload; `None` on an unknown status byte or a
    /// torn error body.
    pub fn decode(payload: &[u8]) -> Option<Response> {
        let (&status, body) = payload.split_first()?;
        match status {
            0 => Some(Response::Ok(body.to_vec())),
            1 => {
                if body.len() < 2 {
                    return None;
                }
                let code = u16::from_be_bytes([body[0], body[1]]);
                Some(Response::Err {
                    code,
                    message: String::from_utf8_lossy(&body[2..]).into_owned(),
                })
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Query kernels (pure; the bench cross-checks fast against naive)
// ---------------------------------------------------------------------------

/// [`window_aggregate`]'s reference implementation: a rowwise scan of the
/// global range. Quadratically slower, definitionally correct.
pub fn window_aggregate_naive(cols: &ColumnarFlows, start_ms: i64, end_ms: i64) -> FilterAggregate {
    let mut agg = FilterAggregate::default();
    if end_ms <= start_ms {
        return agg;
    }
    let (lo, hi) = cols.time_range(Timestamp(start_ms), Timestamp(end_ms));
    for i in lo..hi {
        let len = u64::from(cols.packet_len(i));
        agg.samples += 1;
        agg.total_bytes += len;
        if cols.fragment(i) {
            agg.fragments += 1;
        }
        if cols.is_dropped(i) {
            agg.dropped_packets += 1;
            agg.dropped_bytes += len;
            if cols.active_prefix(i).is_some_and(|(_, active)| active) {
                agg.explained_packets += 1;
                agg.explained_bytes += len;
            }
        }
    }
    agg
}

/// Event-window aggregate: [`filter::filter_aggregate`] with no prefix
/// conjunct and no predicates, so chunk pruning on the chunks' first and
/// last timestamps and the masked kernels answer it. Byte-identical to [`window_aggregate_naive`]
/// for every window (pinned by the `serve_engine` and `fuzz_serve`
/// suites and the serve bench).
pub fn window_aggregate(cols: &ColumnarFlows, start_ms: i64, end_ms: i64) -> FilterAggregate {
    let query = FilterQuery::matching(Vec::new()).with_window(start_ms, end_ms);
    filter::filter_aggregate(cols, None, &query)
}

/// Drop provenance of one blackholed prefix restricted to a window.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixSlice {
    /// The prefix sliced on (canonicalized).
    pub prefix: Prefix,
    /// Samples towards the prefix inside the window.
    pub samples: u64,
    /// Sum of their packet lengths.
    pub total_bytes: u64,
    /// Dropped samples among them.
    pub dropped_packets: u64,
    /// Sum of dropped packet lengths.
    pub dropped_bytes: u64,
    /// Dropped samples explained by an active route-server blackhole.
    pub explained_packets: u64,
    /// Their packet lengths.
    pub explained_bytes: u64,
}

rtbh_json::impl_json! {
    serialize struct PrefixSlice {
        prefix, samples, total_bytes, dropped_packets, dropped_bytes,
        explained_packets, explained_bytes,
    }
}

impl PrefixSlice {
    /// The slice of `prefix` whose samples `agg` aggregates.
    fn new(prefix: Prefix, agg: FilterAggregate) -> PrefixSlice {
        PrefixSlice {
            prefix,
            samples: agg.samples,
            total_bytes: agg.total_bytes,
            dropped_packets: agg.dropped_packets,
            dropped_bytes: agg.dropped_bytes,
            explained_packets: agg.explained_packets,
            explained_bytes: agg.explained_bytes,
        }
    }
}

/// The reference for the engine's `Prefix` answers: a rowwise walk of the
/// prefix's id list that keeps each sample by its own timestamp instead
/// of joining the list against the window. `None` if the prefix is not in
/// the blackhole index.
pub fn prefix_slice_naive(
    index: &SampleIndex,
    cols: &ColumnarFlows,
    prefix: Prefix,
    start_ms: i64,
    end_ms: i64,
) -> Option<PrefixSlice> {
    let pid = index.prefix_id(prefix)?;
    let mut agg = FilterAggregate::default();
    for &id in index.towards(pid) {
        let i = id as usize;
        let at = cols.at(i).as_millis();
        if !(start_ms <= at && at < end_ms) {
            continue;
        }
        let len = u64::from(cols.packet_len(i));
        agg.samples += 1;
        agg.total_bytes += len;
        if cols.is_dropped(i) {
            agg.dropped_packets += 1;
            agg.dropped_bytes += len;
            if cols.active_prefix(i).is_some_and(|(_, active)| active) {
                agg.explained_packets += 1;
                agg.explained_bytes += len;
            }
        }
    }
    Some(PrefixSlice::new(prefix, agg))
}

/// The `Info` reply: corpus shape and store geometry. Everything here is
/// a pure function of the loaded corpus (no runtime counters), so the
/// reply is deterministic and the bench can cross-check it byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoSummary {
    /// The measurement period.
    pub period: rtbh_net::Interval,
    /// 1-in-N flow sampling rate.
    pub sampling_rate: u32,
    /// IXP members in the corpus.
    pub members: usize,
    /// BGP updates.
    pub updates: usize,
    /// Flow samples (after cleaning).
    pub samples: usize,
    /// Inferred RTBH events.
    pub events: usize,
    /// Blackholed prefixes in the sample index.
    pub prefixes: usize,
    /// Sealed chunks in the columnar store.
    pub chunks: usize,
    /// Rows per sealed chunk.
    pub chunk_capacity: usize,
}

rtbh_json::impl_json! {
    serialize struct InfoSummary {
        period, sampling_rate, members, updates, samples, events, prefixes,
        chunks, chunk_capacity,
    }
}

/// Builds the `Info` reply from a prepared analyzer.
pub fn info_summary(analyzer: &Analyzer) -> InfoSummary {
    InfoSummary {
        period: analyzer.corpus().period,
        sampling_rate: analyzer.corpus().sampling_rate,
        members: analyzer.corpus().members.len(),
        updates: analyzer.corpus().updates.len(),
        samples: analyzer.columns().len(),
        events: analyzer.events().len(),
        prefixes: analyzer.index().prefixes().len(),
        chunks: analyzer.columns().chunks().len(),
        chunk_capacity: analyzer.columns().chunk_capacity(),
    }
}

/// Serializes one report section exactly as the batch tooling would
/// (pretty-printed, deterministic field order) — the byte-for-byte
/// oracle the serve bench compares responses against.
pub fn section_json(report: &FullReport, section: Section) -> Vec<u8> {
    match section {
        Section::Full => rtbh_json::to_vec_pretty(report),
        Section::Headline => rtbh_json::to_vec_pretty(&report.headline()),
        Section::Clean => rtbh_json::to_vec_pretty(&report.clean),
        Section::Alignment => rtbh_json::to_vec_pretty(&report.alignment),
        Section::Load => rtbh_json::to_vec_pretty(&report.load),
        Section::Provenance => rtbh_json::to_vec_pretty(&report.provenance),
        Section::Visibility => rtbh_json::to_vec_pretty(&report.visibility),
        Section::Acceptance => rtbh_json::to_vec_pretty(&report.acceptance),
        Section::Preevents => rtbh_json::to_vec_pretty(&report.preevents),
        Section::Protocols => rtbh_json::to_vec_pretty(&report.protocols),
        Section::Filtering => rtbh_json::to_vec_pretty(&report.filtering),
        Section::Hosts => rtbh_json::to_vec_pretty(&report.hosts),
        Section::Collateral => rtbh_json::to_vec_pretty(&report.collateral),
        Section::Classification => rtbh_json::to_vec_pretty(&report.classification),
    }
}

// ---------------------------------------------------------------------------
// Server state and the query engine
// ---------------------------------------------------------------------------

/// Atomic server counters, reported by the `Stats` query.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests handled (including malformed ones).
    pub queries: AtomicU64,
    /// Requests answered with an error reply.
    pub errors: AtomicU64,
    /// LRU cache hits.
    pub cache_hits: AtomicU64,
    /// LRU cache misses (computed fresh and inserted).
    pub cache_misses: AtomicU64,
    /// Connections served over the server's lifetime (not those closed
    /// unanswered past [`MAX_CONNECTIONS`]).
    pub connections: AtomicU64,
}

/// The `Stats` reply (a snapshot of [`ServeStats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsReport {
    /// Requests handled.
    pub queries: u64,
    /// Error replies among them.
    pub errors: u64,
    /// LRU cache hits.
    pub cache_hits: u64,
    /// LRU cache misses.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 before any
    /// cacheable query.
    pub cache_hit_ratio: f64,
    /// Connections served.
    pub connections: u64,
}

rtbh_json::impl_json! {
    serialize struct StatsReport {
        queries, errors, cache_hits, cache_misses, cache_hit_ratio, connections,
    }
}

/// What the connection loop does after writing the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep serving this connection.
    Continue,
    /// Stop the server and drain (a `Shutdown` request).
    Shutdown,
}

/// LRU key. Fixed-size queries key on
/// `(request tag, window start, window end, prefix-/section-id)`;
/// `Filter` queries key on the canonical predicate fingerprint — the
/// wire encoding of the canonicalized query, so permuted or duplicated
/// predicate lists hit the same entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    Fixed(u8, i64, i64, u32),
    Filter(Vec<u8>),
}

/// Everything a query needs, immutable after construction: the prepared
/// analyzer, the batch report, the response cache and the counters.
/// Shared across connection threads behind an `Arc` — cloning the `Arc`
/// *is* the per-query snapshot.
pub struct ServeState {
    analyzer: Analyzer,
    report: FullReport,
    /// Counters behind the `Stats` query.
    pub stats: ServeStats,
    cache: Mutex<Lru<CacheKey, Arc<Vec<u8>>>>,
}

impl ServeState {
    /// Default LRU capacity (distinct cached responses).
    pub const DEFAULT_CACHE_CAPACITY: usize = 256;

    /// Prepares the state: runs the batch pipeline once ([`Analyzer::full`])
    /// so every report query is a cache read, never a recomputation.
    pub fn new(analyzer: Analyzer) -> Self {
        Self::with_cache_capacity(analyzer, Self::DEFAULT_CACHE_CAPACITY)
    }

    /// [`ServeState::new`] with an explicit LRU capacity.
    pub fn with_cache_capacity(analyzer: Analyzer, cache_capacity: usize) -> Self {
        let report = analyzer.full();
        Self {
            analyzer,
            report,
            stats: ServeStats::default(),
            cache: Mutex::new(Lru::new(cache_capacity)),
        }
    }

    /// The prepared analyzer behind the queries.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The batch report computed at startup.
    pub fn report(&self) -> &FullReport {
        &self.report
    }

    /// A [`StatsReport`] snapshot of the counters.
    pub fn stats_report(&self) -> StatsReport {
        let hits = self.stats.cache_hits.load(Ordering::Relaxed);
        let misses = self.stats.cache_misses.load(Ordering::Relaxed);
        StatsReport {
            queries: self.stats.queries.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_ratio: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            connections: self.stats.connections.load(Ordering::Relaxed),
        }
    }

    /// Computes `key`'s response body through the LRU cache.
    fn cached(&self, key: CacheKey, compute: impl FnOnce() -> Vec<u8>) -> Arc<Vec<u8>> {
        let mut cache = self.cache.lock().expect("serve cache poisoned");
        if let Some(hit) = cache.get(&key) {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Compute under the lock: duplicate concurrent misses would burn
        // more CPU than brief serialization of two identical queries.
        let value = Arc::new(compute());
        cache.insert(key, Arc::clone(&value));
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Handles one raw request payload: decode, dispatch, encode. Never
    /// panics on hostile bytes; malformed requests get an error reply.
    pub fn handle(&self, payload: &[u8]) -> (Vec<u8>, Action) {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let request = match Request::decode(payload) {
            Ok(request) => request,
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                let reply = Response::Err {
                    code: ERR_MALFORMED,
                    message: e.to_string(),
                };
                return (reply.encode(), Action::Continue);
            }
        };
        let (response, action) = self.answer(request);
        if matches!(response, Response::Err { .. }) {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        (response.encode(), action)
    }

    /// Answers one decoded request.
    pub fn answer(&self, request: Request) -> (Response, Action) {
        match request {
            Request::Ping => (
                Response::Ok(rtbh_json::to_vec_pretty("pong")),
                Action::Continue,
            ),
            Request::Info => (
                Response::Ok(rtbh_json::to_vec_pretty(&info_summary(&self.analyzer))),
                Action::Continue,
            ),
            Request::Report(section) => {
                let body = self.cached(CacheKey::Fixed(TAG_REPORT, 0, 0, section as u32), || {
                    section_json(&self.report, section)
                });
                (Response::Ok(body.as_ref().clone()), Action::Continue)
            }
            Request::Window { start_ms, end_ms } => {
                let body = self.cached(CacheKey::Fixed(TAG_WINDOW, start_ms, end_ms, 0), || {
                    rtbh_json::to_vec_pretty(&window_aggregate(
                        self.analyzer.columns(),
                        start_ms,
                        end_ms,
                    ))
                });
                (Response::Ok(body.as_ref().clone()), Action::Continue)
            }
            Request::Prefix {
                prefix,
                start_ms,
                end_ms,
            } => {
                let index = self.analyzer.index();
                let Some(pid) = index.prefix_id(prefix) else {
                    return not_indexed(prefix);
                };
                let body = self.cached(
                    CacheKey::Fixed(TAG_PREFIX, start_ms, end_ms, pid as u32),
                    || {
                        let query = FilterQuery::matching(Vec::new()).with_window(start_ms, end_ms);
                        let agg = filter::filter_aggregate(
                            self.analyzer.columns(),
                            Some(index.towards(pid)),
                            &query,
                        );
                        rtbh_json::to_vec_pretty(&PrefixSlice::new(prefix, agg))
                    },
                );
                (Response::Ok(body.as_ref().clone()), Action::Continue)
            }
            Request::Stats => (
                Response::Ok(rtbh_json::to_vec_pretty(&self.stats_report())),
                Action::Continue,
            ),
            Request::Shutdown => (
                Response::Ok(rtbh_json::to_vec_pretty("draining")),
                Action::Shutdown,
            ),
            Request::Filter(query) => {
                let index = self.analyzer.index();
                let ids = match query.prefix {
                    Some(prefix) => match index.prefix_id(prefix) {
                        Some(pid) => Some(index.towards(pid)),
                        None => return not_indexed(prefix),
                    },
                    None => None,
                };
                let mut canonical = query;
                canonical.canonicalize();
                let mut fingerprint = Vec::with_capacity(
                    FILTER_HEAD + FILTER_PRED_BYTES * canonical.predicates.len(),
                );
                filter_body_into(&canonical, &mut fingerprint);
                let body = self.cached(CacheKey::Filter(fingerprint), || {
                    rtbh_json::to_vec_pretty(&filter::filter_aggregate(
                        self.analyzer.columns(),
                        ids,
                        &canonical,
                    ))
                });
                (Response::Ok(body.as_ref().clone()), Action::Continue)
            }
        }
    }
}

/// The reply to a `Prefix` or `Filter` query naming a prefix the blackhole
/// index does not hold.
fn not_indexed(prefix: Prefix) -> (Response, Action) {
    (
        Response::Err {
            code: ERR_NOT_FOUND,
            message: format!("prefix {prefix} is not in the blackhole index"),
        },
        Action::Continue,
    )
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// How long a peer may take to finish sending a request frame once its
/// first byte has arrived, and to take a reply frame from its first byte
/// to its last. A connection that overruns either is dropped, so a peer
/// that trickles bytes or never reads cannot hold it.
pub const PEER_DEADLINE: Duration = Duration::from_secs(5);

/// Most connections open at once. A connection accepted past the cap is
/// closed unanswered and not counted.
pub const MAX_CONNECTIONS: usize = 256;

/// Server tunables.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Requests handled at once (`0` = one per core, the
    /// [`shard::resolve_workers`] rule). Idle connections hold none.
    pub workers: usize,
}

/// The open connections by id; `None` once the server is stopped.
type Open = Option<BTreeMap<u64, Arc<TcpStream>>>;

/// Stops a running server from any thread. Every clone stops the same
/// server, and stopping twice is a no-op.
#[derive(Debug, Clone)]
pub struct Stopper {
    open: Arc<Mutex<Open>>,
    /// Where the self-connect that wakes `accept` goes.
    wake: SocketAddr,
}

impl Stopper {
    /// Stops the server: shuts the read half of every open connection,
    /// which ends idle reads while requests already received are still
    /// answered, then self-connects to wake the blocking `accept`.
    pub fn stop(&self) {
        let Some(open) = self.registry().take() else {
            return;
        };
        for stream in open.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }

    fn registry(&self) -> MutexGuard<'_, Open> {
        self.open.lock().expect("connection registry poisoned")
    }

    fn stopped(&self) -> bool {
        self.registry().is_none()
    }

    fn forget(&self, id: u64) {
        if let Some(open) = self.registry().as_mut() {
            open.remove(&id);
        }
    }
}

/// A counting semaphore over the requests being handled.
struct Permits {
    busy: Mutex<usize>,
    freed: Condvar,
    limit: usize,
}

impl Permits {
    /// Runs `f` once fewer than `limit` requests are being handled.
    fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let busy = self.busy.lock().expect("request permits poisoned");
        let mut busy = self
            .freed
            .wait_while(busy, |busy| *busy >= self.limit)
            .expect("request permits poisoned");
        *busy += 1;
        drop(busy);
        let out = f();
        *self.busy.lock().expect("request permits poisoned") -= 1;
        self.freed.notify_one();
        out
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    options: ServeOptions,
    stopper: Stopper,
}

/// Handle to a server running on a background thread
/// ([`Server::spawn`]): address, stop, join.
pub struct ServerHandle {
    addr: SocketAddr,
    stopper: Stopper,
    join: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (queryable while running).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and waits for the drain to finish.
    pub fn shutdown(self) -> io::Result<()> {
        self.stopper.stop();
        self.join.join().expect("server thread panicked")
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(
        addr: impl ToSocketAddrs,
        state: Arc<ServeState>,
        options: ServeOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let open = Arc::new(Mutex::new(Some(BTreeMap::new())));
        Ok(Server {
            listener,
            state,
            options,
            stopper: Stopper { open, wake },
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A [`Stopper`] for this server (used by `rtbhd`'s signal watcher
    /// and by tests).
    pub fn stopper(&self) -> Stopper {
        self.stopper.clone()
    }

    /// Serves until stopped (by a `Shutdown` request or a [`Stopper`]),
    /// then drains: requests already received are answered, connections
    /// close, and every connection thread is joined before this returns.
    pub fn run(self) -> io::Result<()> {
        let permits = Permits {
            busy: Mutex::new(0),
            freed: Condvar::new(),
            limit: shard::resolve_workers(self.options.workers),
        };
        let (state, stopper, permits) = (&*self.state, &self.stopper, &permits);
        thread::scope(|s| {
            for id in 0u64.. {
                // An accept error skips that one connection.
                let Ok((stream, _)) = self.listener.accept() else {
                    continue;
                };
                let stream = Arc::new(stream);
                match stopper.registry().as_mut() {
                    None => return,
                    Some(open) if open.len() >= MAX_CONNECTIONS => continue,
                    Some(open) => open.insert(id, Arc::clone(&stream)),
                };
                let spawned = thread::Builder::new()
                    .name("rtbhd-conn".into())
                    .spawn_scoped(s, move || {
                        serve_connection(&stream, state, permits, stopper);
                        stopper.forget(id);
                    });
                match spawned {
                    Ok(_) => {
                        state.stats.connections.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => stopper.forget(id),
                }
            }
        });
        Ok(())
    }

    /// Runs the server on a background thread, returning its handle.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stopper = self.stopper();
        let join = thread::Builder::new()
            .name("rtbhd-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            stopper,
            join,
        })
    }
}

/// A connection's socket as one frame sees it. The first read may wait
/// forever; from the first byte moved on, the frame must finish within
/// [`PEER_DEADLINE`]. Every call re-arms the socket timeout with the
/// time left, so a peer that moves a few bytes at a time cannot stretch
/// the deadline.
struct FrameIo<'a> {
    stream: &'a TcpStream,
    deadline: Option<Instant>,
}

impl<'a> FrameIo<'a> {
    fn new(stream: &'a TcpStream) -> Self {
        FrameIo {
            stream,
            deadline: None,
        }
    }

    /// The frame's deadline, started now if it has not started yet.
    fn start(&mut self) -> Instant {
        *self
            .deadline
            .get_or_insert_with(|| Instant::now() + PEER_DEADLINE)
    }
}

/// The time left before `deadline`; `TimedOut` once it has passed.
fn time_left(deadline: Instant) -> io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::ErrorKind::TimedOut.into());
    }
    Ok(left)
}

impl Read for FrameIo<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = self.deadline.map(time_left).transpose()?;
        self.stream.set_read_timeout(timeout)?;
        let n = self.stream.read(buf)?;
        self.start();
        Ok(n)
    }
}

impl Write for FrameIo<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let timeout = time_left(self.start())?;
        self.stream.set_write_timeout(Some(timeout))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serves one connection until the peer leaves, breaks the framing or
/// overruns [`PEER_DEADLINE`], or the server stops.
fn serve_connection(stream: &TcpStream, state: &ServeState, permits: &Permits, stopper: &Stopper) {
    let _ = stream.set_nodelay(true);
    loop {
        let (reply, action) = match frame::read_frame(&mut FrameIo::new(stream), REQUEST_MAX) {
            Ok(Some(payload)) => permits.run(|| state.handle(&payload)),
            // The unread payload makes resync unsafe: answer, then close.
            Err(FrameError::TooLarge { declared, .. }) => {
                state.stats.queries.fetch_add(1, Ordering::Relaxed);
                state.stats.errors.fetch_add(1, Ordering::Relaxed);
                let reply = Response::Err {
                    code: ERR_MALFORMED,
                    message: format!(
                        "request frame of {declared} bytes exceeds the {REQUEST_MAX}-byte cap"
                    ),
                };
                let _ = frame::write_frame(&mut FrameIo::new(stream), &reply.encode());
                return;
            }
            // Clean close, torn frame, dead peer, overrun or a stop.
            Ok(None) | Err(_) => return,
        };
        if frame::write_frame(&mut FrameIo::new(stream), &reply).is_err() {
            return;
        }
        if action == Action::Shutdown {
            stopper.stop();
        }
        if stopper.stopped() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// The client
// ---------------------------------------------------------------------------

/// A client-side request failure.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, framing or I/O failed.
    Frame(FrameError),
    /// The server closed the connection before replying.
    Closed,
    /// The reply payload was not a valid response.
    BadResponse,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Frame(e) => write!(f, "{e}"),
            Self::Closed => write!(f, "server closed the connection"),
            Self::BadResponse => write!(f, "malformed response payload"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

/// A blocking protocol client over one persistent connection.
///
/// Used by `rtbh query`, the serve bench's load generator and the e2e
/// suite; requests are answered in order, one at a time.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// Sends one request and reads its reply.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.request_raw(&request.encode())
    }

    /// Sends raw payload bytes as one frame and reads the reply — the
    /// hostile-input path for tests; real callers use
    /// [`Client::request`].
    pub fn request_raw(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        frame::write_frame(&mut self.stream, payload).map_err(FrameError::Io)?;
        self.stream.flush().map_err(FrameError::Io)?;
        match frame::read_frame(&mut self.stream, RESPONSE_MAX)? {
            None => Err(ClientError::Closed),
            Some(reply) => Response::decode(&reply).ok_or(ClientError::BadResponse),
        }
    }
}

// Corpus-backed tests (kernel-vs-naive equivalence, engine answers, the
// live server) live in `tests/serve_engine.rs`: `rtbh-sim` is a
// dev-dependency that itself depends on this crate, so simulator-built
// corpora only type-unify with ours in an external test crate. The tests
// here cover the pure protocol layer.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let prefix: Prefix = "203.0.113.0/25".parse().unwrap();
        for request in [
            Request::Ping,
            Request::Info,
            Request::Report(Section::Full),
            Request::Report(Section::Classification),
            Request::Window {
                start_ms: -5,
                end_ms: i64::MAX,
            },
            Request::Prefix {
                prefix,
                start_ms: 0,
                end_ms: 60_000,
            },
            Request::Stats,
            Request::Shutdown,
            Request::Filter(FilterQuery::matching(Vec::new())),
            Request::Filter(
                FilterQuery::matching(vec![
                    Predicate::parse("dst_port=53").unwrap(),
                    Predicate::parse("protocol=17").unwrap(),
                    Predicate::parse("fragment=1").unwrap(),
                ])
                .with_window(-5, i64::MAX)
                .with_prefix(prefix),
            ),
        ] {
            let encoded = request.encode();
            assert_eq!(
                Request::decode(&encoded),
                Ok(request.clone()),
                "{request:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_hostile_payloads_cleanly() {
        assert_eq!(Request::decode(&[]), Err(ProtoError::Empty));
        assert_eq!(Request::decode(&[0]), Err(ProtoError::UnknownTag(0)));
        assert_eq!(Request::decode(&[99]), Err(ProtoError::UnknownTag(99)));
        // Trailing bytes are a length mismatch, not silently ignored.
        assert_eq!(
            Request::decode(&[TAG_PING, 1]),
            Err(ProtoError::BadLength {
                tag: TAG_PING,
                expected: 0,
                got: 1
            })
        );
        assert_eq!(
            Request::decode(&[TAG_WINDOW, 0, 0]),
            Err(ProtoError::BadLength {
                tag: TAG_WINDOW,
                expected: 16,
                got: 2
            })
        );
        assert_eq!(
            Request::decode(&[TAG_REPORT, 200]),
            Err(ProtoError::UnknownSection(200))
        );
        // Prefix length 33 is invalid even with a well-sized body.
        let mut bad = vec![TAG_PREFIX];
        bad.put_u32(0xC0A8_0000);
        bad.put_u8(33);
        bad.put_i64(0);
        bad.put_i64(1);
        assert_eq!(Request::decode(&bad), Err(ProtoError::BadPrefix(33)));
    }

    #[test]
    fn decode_rejects_hostile_filter_bodies_cleanly() {
        let base = |npreds: u8| {
            let mut out = vec![TAG_FILTER];
            out.put_i64(0);
            out.put_i64(1);
            out.put_u8(0); // prefix absent
            out.put_u32(0);
            out.put_u8(0);
            out.put_u8(npreds);
            out
        };
        // Truncated head.
        assert_eq!(
            Request::decode(&[TAG_FILTER, 0, 0]),
            Err(ProtoError::BadLength {
                tag: TAG_FILTER,
                expected: FILTER_HEAD,
                got: 2
            })
        );
        // Declared predicate count beyond the cap.
        assert_eq!(
            Request::decode(&base(17)),
            Err(ProtoError::TooManyPredicates(17))
        );
        // Declared count without the predicate bytes.
        assert_eq!(
            Request::decode(&base(2)),
            Err(ProtoError::BadLength {
                tag: TAG_FILTER,
                expected: FILTER_HEAD + 2 * FILTER_PRED_BYTES,
                got: FILTER_HEAD
            })
        );
        // Unknown predicate column code.
        let mut bad = base(1);
        bad.put_u8(9);
        bad.put_u8(0);
        bad.put_u32(1);
        assert_eq!(Request::decode(&bad), Err(ProtoError::BadPredicate(0)));
        // Out-of-range compare value for a u16 column.
        let mut bad = base(1);
        bad.put_u8(0);
        bad.put_u8(0);
        bad.put_u32(70_000);
        assert_eq!(Request::decode(&bad), Err(ProtoError::BadPredicate(0)));
        // Absent prefix must zero its bytes (canonical encoding).
        let mut bad = base(0);
        bad[17] = 0; // present flag
        bad[18] = 7; // nonzero bits
        assert!(matches!(
            Request::decode(&bad),
            Err(ProtoError::BadFilter(_))
        ));
        // Presence flag beyond 0/1.
        let mut bad = base(0);
        bad[17] = 2;
        assert!(matches!(
            Request::decode(&bad),
            Err(ProtoError::BadFilter(_))
        ));
        // Present prefix with length > 32.
        let mut bad = base(0);
        bad[17] = 1;
        bad[22] = 33;
        assert_eq!(Request::decode(&bad), Err(ProtoError::BadPrefix(33)));
    }

    #[test]
    fn responses_round_trip() {
        for response in [
            Response::Ok(b"{}".to_vec()),
            Response::Ok(Vec::new()),
            Response::Err {
                code: ERR_NOT_FOUND,
                message: "nope".into(),
            },
        ] {
            let encoded = response.encode();
            assert_eq!(Response::decode(&encoded), Some(response));
        }
        assert_eq!(Response::decode(&[]), None);
        assert_eq!(Response::decode(&[2]), None);
        assert_eq!(Response::decode(&[1, 0]), None); // torn error body
    }

    #[test]
    fn sections_name_round_trip_and_cover_the_report() {
        for section in Section::ALL {
            assert_eq!(Section::from_name(section.name()), Some(section));
            assert_eq!(Section::from_u8(section as u8), Some(section));
        }
        assert_eq!(Section::from_u8(Section::ALL.len() as u8), None);
        assert_eq!(Section::from_name("bogus"), None);
    }
}
