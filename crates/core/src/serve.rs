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
//!   tag 4 Window    body (start i64, end i64)    -> WindowAggregate JSON
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
//! [`Server::run`] is a thread-per-core accept/worker pool built on the
//! same resolution rule as the analysis kernels
//! ([`shard::resolve_workers`]): the accept loop hands connections to
//! workers over a channel; each worker owns its connections and polls a
//! shutdown flag between frames (reads use short timeouts, so an idle
//! keep-alive connection cannot pin a worker during shutdown). On
//! shutdown — a `Shutdown` request or an external signal flipping the
//! stop flag — in-flight requests are answered, then connections close
//! and the pool drains.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use rtbh_net::cursor::{PutBytes, Reader};
use rtbh_net::frame::{self, FrameError};
use rtbh_net::{Ipv4Addr, Prefix, Timestamp};

use crate::columns::{gallop_partition_point, ColumnarFlows};
use crate::filter::{
    self, FilterAggregate, FilterQuery, IdDict, Predicate, SelectionMask, MAX_PREDICATES,
};
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

/// Aggregate over every sample in a time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowAggregate {
    /// Samples with `start <= at < end`.
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
    /// Fragments in the window.
    pub fragments: u64,
}

rtbh_json::impl_json! {
    serialize struct WindowAggregate {
        samples, total_bytes, dropped_packets, dropped_bytes,
        explained_packets, explained_bytes, fragments,
    }
}

/// [`window_aggregate`]'s reference implementation: a rowwise scan of the
/// global range. Quadratically slower, definitionally correct.
pub fn window_aggregate_naive(cols: &ColumnarFlows, start_ms: i64, end_ms: i64) -> WindowAggregate {
    let mut agg = WindowAggregate::default();
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

impl WindowAggregate {
    /// A window query is a predicate-free filter: the fields map 1:1.
    fn from_filter(agg: FilterAggregate) -> WindowAggregate {
        WindowAggregate {
            samples: agg.samples,
            total_bytes: agg.total_bytes,
            dropped_packets: agg.dropped_packets,
            dropped_bytes: agg.dropped_bytes,
            explained_packets: agg.explained_packets,
            explained_bytes: agg.explained_bytes,
            fragments: agg.fragments,
        }
    }
}

/// Event-window aggregate via [`TimeBuckets`](crate::columns::TimeBuckets)
/// chunk pruning and the shared selection-mask kernels
/// ([`filter::filter_aggregate`] with an empty predicate list): masked
/// popcounts for counts, set-bit walks for byte sums, a plain
/// (autovectorizable) slice reduction for fully-selected words.
/// Byte-identical to [`window_aggregate_naive`] for every window (pinned
/// by unit tests, the `fuzz_serve` suite and the serve bench).
pub fn window_aggregate(cols: &ColumnarFlows, start_ms: i64, end_ms: i64) -> WindowAggregate {
    let query = FilterQuery::matching(Vec::new()).with_window(start_ms, end_ms);
    WindowAggregate::from_filter(filter::filter_aggregate(cols, None, &query))
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

fn prefix_slice_over(cols: &ColumnarFlows, prefix: Prefix, ids: &[u32]) -> PrefixSlice {
    let mut out = PrefixSlice {
        prefix,
        samples: 0,
        total_bytes: 0,
        dropped_packets: 0,
        dropped_bytes: 0,
        explained_packets: 0,
        explained_bytes: 0,
    };
    for &id in ids {
        let i = id as usize;
        let len = u64::from(cols.packet_len(i));
        out.samples += 1;
        out.total_bytes += len;
        if cols.is_dropped(i) {
            out.dropped_packets += 1;
            out.dropped_bytes += len;
            if cols.active_prefix(i).is_some_and(|(_, active)| active) {
                out.explained_packets += 1;
                out.explained_bytes += len;
            }
        }
    }
    out
}

/// Per-prefix drop provenance via the gallop join: the index's sorted
/// `towards` list for the prefix is restricted to the window with
/// [`ColumnarFlows::window_ids`] (chunk-header pruning +
/// [`gallop_partition_point`]), scattered into a per-chunk
/// [`SelectionMask`] and aggregated by the shared
/// [`filter::aggregate_chunk`] kernel. `None` if the prefix is not in the
/// blackhole index.
pub fn prefix_slice(
    index: &SampleIndex,
    cols: &ColumnarFlows,
    prefix: Prefix,
    start_ms: i64,
    end_ms: i64,
) -> Option<PrefixSlice> {
    let pid = index.prefix_id(prefix)?;
    let ids = if end_ms <= start_ms {
        &[][..]
    } else {
        cols.window_ids(index.towards(pid), Timestamp(start_ms), Timestamp(end_ms))
    };
    let mut agg = FilterAggregate::default();
    let mut mask = SelectionMask::new();
    let mut cur = 0usize;
    for chunk in cols.chunks() {
        if cur >= ids.len() {
            break;
        }
        let c_start = chunk.start();
        let c_end = c_start + chunk.len();
        if ids[cur] as usize >= c_end {
            continue;
        }
        let end = gallop_partition_point(ids, cur, c_end as u32);
        mask.reset_zero(chunk.len());
        for &id in &ids[cur..end] {
            mask.set(id as usize - c_start);
        }
        filter::aggregate_chunk(chunk, &mask, &mut agg);
        cur = end;
    }
    Some(PrefixSlice {
        prefix,
        samples: agg.samples,
        total_bytes: agg.total_bytes,
        dropped_packets: agg.dropped_packets,
        dropped_bytes: agg.dropped_bytes,
        explained_packets: agg.explained_packets,
        explained_bytes: agg.explained_bytes,
    })
}

/// [`prefix_slice`]'s reference implementation: filter the same id list
/// by each sample's timestamp instead of joining against the window.
pub fn prefix_slice_naive(
    index: &SampleIndex,
    cols: &ColumnarFlows,
    prefix: Prefix,
    start_ms: i64,
    end_ms: i64,
) -> Option<PrefixSlice> {
    let pid = index.prefix_id(prefix)?;
    let ids: Vec<u32> = index
        .towards(pid)
        .iter()
        .copied()
        .filter(|&id| {
            let at = cols.at(id as usize).as_millis();
            start_ms <= at && at < end_ms
        })
        .collect();
    Some(prefix_slice_over(cols, prefix, &ids))
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
    /// Connections accepted over the server's lifetime.
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
    /// Connections accepted.
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
    /// Flip the stop flag and drain (a `Shutdown` request).
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
/// Shared across workers as an `Arc` — cloning the `Arc` *is* the
/// per-query snapshot.
pub struct ServeState {
    analyzer: Analyzer,
    report: FullReport,
    dict: IdDict,
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
        let dict = IdDict::from_index(analyzer.index());
        Self {
            analyzer,
            report,
            dict,
            stats: ServeStats::default(),
            cache: Mutex::new(Lru::new(cache_capacity)),
        }
    }

    /// The prepared analyzer behind the queries.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The dictionary-encoded per-prefix id lists `Filter` queries
    /// gallop-join against (one list per blackholed prefix, deduplicated
    /// across prefixes that attract the same sample set).
    pub fn dict(&self) -> &IdDict {
        &self.dict
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
                let Some(pid) = self.analyzer.index().prefix_id(prefix) else {
                    return (
                        Response::Err {
                            code: ERR_NOT_FOUND,
                            message: format!("prefix {prefix} is not in the blackhole index"),
                        },
                        Action::Continue,
                    );
                };
                let body = self.cached(
                    CacheKey::Fixed(TAG_PREFIX, start_ms, end_ms, pid as u32),
                    || {
                        let slice = prefix_slice(
                            self.analyzer.index(),
                            self.analyzer.columns(),
                            prefix,
                            start_ms,
                            end_ms,
                        )
                        .expect("prefix id resolved above");
                        rtbh_json::to_vec_pretty(&slice)
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
                let join = match query.prefix {
                    Some(prefix) => match self.analyzer.index().prefix_id(prefix) {
                        Some(pid) => Some((&self.dict, pid as u32)),
                        None => {
                            return (
                                Response::Err {
                                    code: ERR_NOT_FOUND,
                                    message: format!(
                                        "prefix {prefix} is not in the blackhole index"
                                    ),
                                },
                                Action::Continue,
                            );
                        }
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
                        join,
                        &canonical,
                    ))
                });
                (Response::Ok(body.as_ref().clone()), Action::Continue)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads handling connections (`0` = one per core, the
    /// [`shard::resolve_workers`] rule).
    pub workers: usize,
    /// Poll interval for idle reads and the accept loop; bounds how long
    /// shutdown waits on idle connections.
    pub poll_interval: Duration,
    /// How long a peer may take to finish sending a started frame before
    /// the connection is dropped (slow-loris guard).
    pub frame_deadline: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            poll_interval: Duration::from_millis(25),
            frame_deadline: Duration::from_secs(5),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    options: ServeOptions,
    stop: Arc<AtomicBool>,
}

/// Handle to a server running on a background thread
/// ([`Server::spawn`]): address, stop flag, join.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (queryable while running).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared stop flag (e.g. to wire a signal handler to).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Requests shutdown and waits for the drain to finish.
    pub fn shutdown(self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
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
        Ok(Server {
            listener,
            state,
            options,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared stop flag: storing `true` initiates a graceful drain
    /// (used by `rtbhd`'s SIGTERM handler and by tests).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs the accept/worker pool until the stop flag is set (by a
    /// `Shutdown` request or externally), then drains: queued and
    /// in-flight requests are answered, connections close, workers join.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let workers = shard::resolve_workers(self.options.workers);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let rx = Arc::clone(&rx);
                    let state = Arc::clone(&self.state);
                    let stop = Arc::clone(&self.stop);
                    let options = self.options;
                    s.spawn(move || worker_loop(&rx, &state, &stop, options))
                })
                .collect();
            while !self.stop.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        self.state.stats.connections.fetch_add(1, Ordering::Relaxed);
                        // Send can only fail once every worker exited,
                        // which only happens after the stop flag is set.
                        let _ = tx.send(stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(self.options.poll_interval);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(self.options.poll_interval),
                }
            }
            drop(tx);
            for h in handles {
                let _ = h.join();
            }
        });
        Ok(())
    }

    /// Runs the server on a background thread, returning its handle.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = self.stop_flag();
        let join = std::thread::Builder::new()
            .name("rtbhd-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle { addr, stop, join })
    }
}

fn worker_loop(
    rx: &Mutex<mpsc::Receiver<TcpStream>>,
    state: &Arc<ServeState>,
    stop: &AtomicBool,
    options: ServeOptions,
) {
    loop {
        let next = rx.lock().expect("accept queue poisoned").recv();
        let Ok(stream) = next else {
            return; // accept loop exited and the queue is drained
        };
        if stop.load(Ordering::SeqCst) {
            continue; // draining: drop queued, never-served connections
        }
        handle_connection(stream, state, stop, options);
    }
}

/// Outcome of waiting for the next request frame on a connection.
enum ReadOutcome {
    Frame(Vec<u8>),
    /// Clean close, torn frame, dead peer or frame-deadline overrun —
    /// all end the connection silently.
    Close,
    /// The peer declared a frame larger than [`REQUEST_MAX`]; reply with
    /// an error, then close (the unread payload makes resync unsafe).
    TooLarge(u32),
    /// The stop flag was observed while idle.
    Stopped,
}

/// Reads one request frame, polling the stop flag while the connection
/// is idle. Once a frame's first byte has arrived the request counts as
/// in-flight: it is read to completion (bounded by `frame_deadline`) and
/// will be answered even during a drain.
fn read_request(stream: &mut TcpStream, stop: &AtomicBool, options: ServeOptions) -> ReadOutcome {
    let mut head = [0u8; 4];
    // Idle phase: wait for the first length byte.
    loop {
        match stream.read(&mut head[..1]) {
            Ok(0) => return ReadOutcome::Close,
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return ReadOutcome::Stopped;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Close,
        }
    }
    // Committed phase: finish the frame under the deadline.
    let deadline = Instant::now() + options.frame_deadline;
    if !read_exact_deadline(stream, &mut head[1..], deadline) {
        return ReadOutcome::Close;
    }
    let declared = u32::from_be_bytes(head);
    if declared as usize > REQUEST_MAX {
        return ReadOutcome::TooLarge(declared);
    }
    let mut payload = vec![0u8; declared as usize];
    if !read_exact_deadline(stream, &mut payload, deadline) {
        return ReadOutcome::Close;
    }
    ReadOutcome::Frame(payload)
}

/// `read_exact` over a stream with a read timeout: retries timeouts until
/// `deadline`, returns false on EOF, error or overrun.
fn read_exact_deadline(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

fn handle_connection(
    mut stream: TcpStream,
    state: &Arc<ServeState>,
    stop: &AtomicBool,
    options: ServeOptions,
) {
    let _ = stream.set_read_timeout(Some(options.poll_interval));
    let _ = stream.set_nodelay(true);
    loop {
        match read_request(&mut stream, stop, options) {
            ReadOutcome::Frame(payload) => {
                // The per-query snapshot: an Arc clone of the immutable
                // state. Nothing the query reads can change under it.
                let snapshot = Arc::clone(state);
                let (reply, action) = snapshot.handle(&payload);
                if frame::write_frame(&mut stream, &reply).is_err() {
                    return;
                }
                match action {
                    Action::Continue => {
                        // Answered the in-flight request; during a drain
                        // that is all this connection gets.
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                    Action::Shutdown => {
                        stop.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
            ReadOutcome::TooLarge(declared) => {
                let reply = Response::Err {
                    code: ERR_MALFORMED,
                    message: format!(
                        "request frame of {declared} bytes exceeds the {REQUEST_MAX}-byte cap"
                    ),
                };
                let _ = frame::write_frame(&mut stream, &reply.encode());
                return;
            }
            ReadOutcome::Close | ReadOutcome::Stopped => return,
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
        frame::write_frame(&mut self.stream, &request.encode()).map_err(FrameError::Io)?;
        self.stream.flush().map_err(FrameError::Io)?;
        match frame::read_frame(&mut self.stream, RESPONSE_MAX)? {
            None => Err(ClientError::Closed),
            Some(payload) => Response::decode(&payload).ok_or(ClientError::BadResponse),
        }
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
