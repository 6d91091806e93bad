//! Sealed-chunk columnar flow store with one-pass enrichment and
//! header-pruned window queries.
//!
//! Every analysis stage used to iterate the AoS `Vec<FlowSample>` and
//! independently re-resolve MACs and re-walk the blackhole LPM per sample.
//! [`ColumnarFlows`] stores the cleaned, aligned flow log as a sequence of
//! immutable **sealed chunks** ([`SealedChunk`]): fixed-capacity column
//! slabs — timestamps, addresses, ports, protocol, packet length — plus
//! per-sample ids a single parallel **enrichment pass** precomputes once.
//! Prepare runs that pass straight over the raw corpus log: it skips the
//! internal samples its first pass found and stamps the clock-corrected
//! timestamp as it seals, so no cleaned or shifted copy of the log exists.
//! The per-sample ids are:
//!
//! * ingress/egress member ASN (from the member directory, a
//!   [`MacResolver`]), interned into a sorted ASN table;
//! * the origin AS of the source address (an [`OriginTable`] LPM),
//!   interned into the same table;
//! * the dense covering blackhole-prefix id for destination and source —
//!   the very ids [`SampleIndex`](crate::index::SampleIndex) uses, so the
//!   index build degrades to bucketing precomputed ids;
//! * the covering *interval-holding* prefix id plus an *active* bit:
//!   whether the sample arrived while that prefix's blackhole was
//!   announced. (This is a separate column because
//!   [`rtbh_bgp::blackhole_intervals`] omits prefixes whose only
//!   intervals are degenerate, so its prefix set can be a strict subset of
//!   the announcement set the sample index is keyed by.)
//!
//! The boolean per-sample facts (fragment, dropped, active) are **bitset
//! columns**: one `u64` word per 64 samples, bit `r & 63` of word `r >> 6`
//! for row `r`, unused tail bits zero. Counting kernels reduce to popcount
//! over (masked) whole words; see [`crate::load::drop_provenance`] and
//! [`crate::acceptance::analyze_acceptance`].
//!
//! The chunk layout is a **written contract**: `docs/CHUNK_ABI.md` at the
//! workspace root specifies every column's order, width and sentinel, the
//! bitset word packing and the chunk-header fields, and a unit test here
//! cross-checks the spec against the [`abi`] constants. Streaming ingest,
//! the `rtbhd` server and out-of-core spill (ROADMAP items 1–3) all
//! consume sealed chunks through this contract.
//!
//! # Determinism
//!
//! Chunk boundaries depend on the (power-of-two) chunk capacity alone —
//! chunk `k` always holds samples `[k·C, min((k+1)·C, n))` — never on the
//! worker count: workers seal whole chunks and the results are reassembled
//! in chunk order. Concatenating the chunks in order therefore reproduces
//! the input sample order exactly, for every worker count *and* every
//! capacity, which is why `FullReport` bytes can never move when either
//! knob changes (pinned by the `report_identity` and `columns_diff`
//! differential suites). All id tables (ASN intern table, prefix ids) are
//! compiled *before* the parallel pass from already-deterministic inputs.
//!
//! One lossy corner, by design: the protocol column stores the wire
//! protocol *number* (`u8`), and accessors rebuild the enum via
//! [`Protocol::from_number`], which canonicalizes (`Other(6)` would come
//! back as `Tcp`). The wire codec already funnels protocols through the
//! same `u8`, and the simulator only emits canonical variants, so no
//! corpus can observe the difference.
//!
//! # Window queries
//!
//! Samples are time-sorted, so each chunk's `min_at`/`max_at` header
//! brackets its rows and the per-chunk `max_at` sequence is
//! non-decreasing. [`TimeBuckets`] keeps that header sequence; a window
//! bound first *prunes* to the one chunk that can contain the boundary
//! (binary search over headers), then binary-searches only inside it.
//! [`ColumnarFlows::window_ids`] then intersects the window with a sorted
//! sample-id list via [`gallop_partition_point`] — exponential search that
//! is O(log d) in the *distance* to the answer, not the list length.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use rtbh_bgp::UpdateLog;
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_net::{Asn, FrozenLpm, Ipv4Addr, Prefix, Protocol, TimeDelta, Timestamp};

use crate::index::{MacResolver, OriginTable, SampleEnricher};
use crate::shard;

/// Sentinel for "no value" in every `u32` id column (interned ASNs,
/// prefix ids).
pub const NONE: u32 = u32::MAX;

/// The sealed-chunk ABI constants, mirrored field-by-field by
/// `docs/CHUNK_ABI.md` (a unit test asserts the two agree).
pub mod abi {
    /// Version of the in-memory chunk layout this module implements.
    pub const ABI_VERSION: u32 = 1;
    /// Default chunk capacity (rows per chunk), a power of two.
    pub const DEFAULT_CHUNK_CAPACITY: usize = 1 << 16;
    /// Smallest accepted chunk capacity; requests below are clamped up.
    pub const MIN_CHUNK_CAPACITY: usize = 64;
    /// Largest accepted chunk capacity; requests above are clamped down.
    pub const MAX_CHUNK_CAPACITY: usize = 1 << 30;
    /// Bits per flag-bitset word: row `r` lives in word `r >> 6`,
    /// bit `r & 63`. Unused bits of the last word are zero.
    pub const FLAG_WORD_BITS: usize = 64;
    /// `(name, element width in bytes)` of every value column, in ABI
    /// order. Id columns use [`super::NONE`] (`u32::MAX`) as the "no
    /// value" sentinel.
    pub const VALUE_COLUMNS: [(&str, usize); 13] = [
        ("at", 8),
        ("src_ip", 4),
        ("dst_ip", 4),
        ("src_port", 2),
        ("dst_port", 2),
        ("protocol", 1),
        ("packet_len", 4),
        ("ingress", 4),
        ("egress", 4),
        ("origin", 4),
        ("dst_pid", 4),
        ("src_pid", 4),
        ("active_pid", 4),
    ];
    /// Names of the per-flag bitset columns, in ABI order.
    pub const FLAG_COLUMNS: [&str; 3] = ["fragment", "dropped", "active"];
    /// `(name, width in bytes)` of the chunk-header fields, in ABI order.
    pub const HEADER_FIELDS: [(&str, usize); 3] = [("start", 8), ("min_at", 8), ("max_at", 8)];
    /// Ids per sync block in a dictionary-encoded sorted id list
    /// ([`crate::filter::IdDict`]): every block stores its first id and
    /// stream offset in the sync tables, so a gallop over the sync ids
    /// lands on a block boundary and decodes at most
    /// `DICT_SYNC_INTERVAL - 1` varint deltas to reach any id.
    pub const DICT_SYNC_INTERVAL: usize = 64;
}

/// One immutable, fixed-capacity slab of the columnar store.
///
/// Sealed at build time and never mutated afterwards: every accessor
/// returns either a whole column slice (for the word-at-a-time kernels) or
/// one row's value. Row indices are chunk-local (`0..len()`); add
/// [`SealedChunk::start`] to recover the global sample index.
///
/// # Example
///
/// ```
/// use rtbh_core::columns::ColumnarFlows;
/// use rtbh_fabric::{FlowLog, FlowSample};
/// use rtbh_net::{MacAddr, Protocol, Timestamp};
///
/// let samples: Vec<FlowSample> = (0..130)
///     .map(|i| FlowSample {
///         at: Timestamp(i * 1_000),
///         src_mac: MacAddr::from_id(1),
///         dst_mac: if i % 2 == 0 { MacAddr::BLACKHOLE } else { MacAddr::from_id(2) },
///         src_ip: "192.0.2.1".parse().unwrap(),
///         dst_ip: "198.51.100.9".parse().unwrap(),
///         protocol: Protocol::Udp,
///         src_port: 53,
///         dst_port: 4444,
///         packet_len: 512,
///         fragment: false,
///     })
///     .collect();
/// // Capacity 64 → three sealed chunks holding 64 + 64 + 2 rows.
/// let cols = ColumnarFlows::from_log_with_capacity(&FlowLog::from_samples(samples), 64);
/// assert_eq!(cols.chunks().len(), 3);
/// assert_eq!(cols.chunks()[2].start(), 128);
/// // Counting kernels are popcounts over whole bitset words — the tail
/// // bits of the last word are zero by contract.
/// let dropped: u32 = cols
///     .chunks()
///     .iter()
///     .flat_map(|c| c.dropped_words())
///     .map(|w| w.count_ones())
///     .sum();
/// assert_eq!(dropped, 65);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SealedChunk {
    /// Global index of this chunk's row 0.
    start: usize,
    /// Smallest timestamp (ms) in the chunk.
    min_at: i64,
    /// Largest timestamp (ms) in the chunk.
    max_at: i64,
    at: Vec<i64>,
    src_ip: Vec<u32>,
    dst_ip: Vec<u32>,
    src_port: Vec<u16>,
    dst_port: Vec<u16>,
    protocol: Vec<u8>,
    packet_len: Vec<u32>,
    ingress: Vec<u32>,
    egress: Vec<u32>,
    origin: Vec<u32>,
    dst_pid: Vec<u32>,
    src_pid: Vec<u32>,
    active_pid: Vec<u32>,
    fragment_bits: Vec<u64>,
    dropped_bits: Vec<u64>,
    active_bits: Vec<u64>,
}

impl SealedChunk {
    /// Rows in this chunk (at most the store's chunk capacity; only the
    /// last chunk may hold fewer).
    #[inline]
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// True when the chunk holds no rows (never produced by a build; kept
    /// for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Global sample index of row 0.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Header: smallest timestamp (ms) in the chunk — with the store's
    /// time-sorted samples, the timestamp of row 0.
    #[inline]
    pub fn min_at_millis(&self) -> i64 {
        self.min_at
    }

    /// Header: largest timestamp (ms) in the chunk — with time-sorted
    /// samples, the timestamp of the last row.
    #[inline]
    pub fn max_at_millis(&self) -> i64 {
        self.max_at
    }

    /// The millisecond-timestamp column.
    #[inline]
    pub fn at_millis(&self) -> &[i64] {
        &self.at
    }

    /// The raw `u32` source-address column.
    #[inline]
    pub fn src_ip_raw(&self) -> &[u32] {
        &self.src_ip
    }

    /// The raw `u32` destination-address column.
    #[inline]
    pub fn dst_ip_raw(&self) -> &[u32] {
        &self.dst_ip
    }

    /// The source-port column.
    #[inline]
    pub fn src_ports(&self) -> &[u16] {
        &self.src_port
    }

    /// The destination-port column.
    #[inline]
    pub fn dst_ports(&self) -> &[u16] {
        &self.dst_port
    }

    /// The wire protocol-number column.
    #[inline]
    pub fn protocols(&self) -> &[u8] {
        &self.protocol
    }

    /// The sampled packet-length column (widened to `u32` per the ABI).
    #[inline]
    pub fn packet_lens(&self) -> &[u32] {
        &self.packet_len
    }

    /// Interned ingress (handover) member-ASN ids ([`NONE`] = unknown).
    #[inline]
    pub fn ingress_ids(&self) -> &[u32] {
        &self.ingress
    }

    /// Interned egress member-ASN ids ([`NONE`] for dropped samples).
    #[inline]
    pub fn egress_ids(&self) -> &[u32] {
        &self.egress
    }

    /// Interned origin-AS ids of the source addresses ([`NONE`] =
    /// unrouted).
    #[inline]
    pub fn origin_ids(&self) -> &[u32] {
        &self.origin
    }

    /// Dense blackhole-prefix ids covering each destination ([`NONE`]
    /// where uncovered) — the column
    /// [`SampleIndex::from_columns`](crate::index::SampleIndex::from_columns)
    /// buckets.
    #[inline]
    pub fn dst_prefix_ids(&self) -> &[u32] {
        &self.dst_pid
    }

    /// Dense blackhole-prefix ids covering each source ([`NONE`] where
    /// uncovered).
    #[inline]
    pub fn src_prefix_ids(&self) -> &[u32] {
        &self.src_pid
    }

    /// Ids (into [`ColumnarFlows::active_prefixes`]) of the
    /// interval-holding prefix covering each destination ([`NONE`] where
    /// uncovered).
    #[inline]
    pub fn active_prefix_ids(&self) -> &[u32] {
        &self.active_pid
    }

    /// Number of `u64` words in each bitset column:
    /// `(len + 63) / 64`.
    #[inline]
    pub fn words(&self) -> usize {
        self.fragment_bits.len()
    }

    /// The fragment bitset: bit `r & 63` of word `r >> 6` is set when row
    /// `r` was an IP fragment. Tail bits beyond `len()` are zero.
    #[inline]
    pub fn fragment_words(&self) -> &[u64] {
        &self.fragment_bits
    }

    /// The dropped bitset: set when the row was delivered to the
    /// blackhole next hop. Tail bits are zero, so
    /// `dropped_words().iter().map(|w| w.count_ones())` is an exact
    /// dropped-packet count.
    #[inline]
    pub fn dropped_words(&self) -> &[u64] {
        &self.dropped_bits
    }

    /// The active bitset: set when the destination's covering
    /// interval-holding prefix had an announced blackhole at the row's
    /// timestamp. Tail bits are zero.
    #[inline]
    pub fn active_words(&self) -> &[u64] {
        &self.active_bits
    }

    /// Was row `r` an IP fragment?
    #[inline]
    pub fn fragment(&self, r: usize) -> bool {
        self.fragment_bits[r >> 6] >> (r & 63) & 1 == 1
    }

    /// Was row `r` delivered to the blackhole next hop?
    #[inline]
    pub fn dropped(&self, r: usize) -> bool {
        self.dropped_bits[r >> 6] >> (r & 63) & 1 == 1
    }

    /// Did row `r` arrive during an active blackhole of its covering
    /// interval-holding prefix?
    #[inline]
    pub fn active(&self, r: usize) -> bool {
        self.active_bits[r >> 6] >> (r & 63) & 1 == 1
    }
}

/// One fully enriched row, ready to append to a chunk — the unit both the
/// batch sealing kernel (prepare's pass 2 and
/// `build_enriched_with_capacity`) and the streaming [`ChunkRing`] push, so
/// the two paths share one append kernel and can never diverge on layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRow {
    /// Sample timestamp, milliseconds.
    pub at: i64,
    /// Source address, raw `u32`.
    pub src_ip: u32,
    /// Destination address, raw `u32`.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Wire protocol number.
    pub protocol: u8,
    /// Sampled packet length (widened to `u32` per the ABI).
    pub packet_len: u32,
    /// Interned ingress member-ASN id ([`NONE`] = unknown).
    pub ingress: u32,
    /// Interned egress member-ASN id ([`NONE`] for dropped samples).
    pub egress: u32,
    /// Interned origin-AS id of the source ([`NONE`] = unrouted).
    pub origin: u32,
    /// Dense blackhole-prefix id covering the destination ([`NONE`] =
    /// uncovered).
    pub dst_pid: u32,
    /// Dense blackhole-prefix id covering the source ([`NONE`] =
    /// uncovered).
    pub src_pid: u32,
    /// Id of the interval-holding prefix covering the destination
    /// ([`NONE`] = uncovered).
    pub active_pid: u32,
    /// Was the sample an IP fragment?
    pub fragment: bool,
    /// Was the sample delivered to the blackhole next hop?
    pub dropped: bool,
    /// Did the sample arrive during an active blackhole of its covering
    /// prefix?
    pub active: bool,
}

/// Work-in-progress columns of one chunk; [`ChunkBuilder::seal`] freezes
/// them into a [`SealedChunk`] with computed headers.
struct ChunkBuilder {
    chunk: SealedChunk,
}

impl ChunkBuilder {
    fn new(start: usize, rows: usize) -> Self {
        let words = rows.div_ceil(abi::FLAG_WORD_BITS);
        Self {
            chunk: SealedChunk {
                start,
                min_at: i64::MAX,
                max_at: i64::MIN,
                at: Vec::with_capacity(rows),
                src_ip: Vec::with_capacity(rows),
                dst_ip: Vec::with_capacity(rows),
                src_port: Vec::with_capacity(rows),
                dst_port: Vec::with_capacity(rows),
                protocol: Vec::with_capacity(rows),
                packet_len: Vec::with_capacity(rows),
                ingress: Vec::with_capacity(rows),
                egress: Vec::with_capacity(rows),
                origin: Vec::with_capacity(rows),
                dst_pid: Vec::with_capacity(rows),
                src_pid: Vec::with_capacity(rows),
                active_pid: Vec::with_capacity(rows),
                fragment_bits: vec![0; words],
                dropped_bits: vec![0; words],
                active_bits: vec![0; words],
            },
        }
    }

    #[inline]
    fn set_bit(bits: &mut [u64], r: usize) {
        bits[r >> 6] |= 1u64 << (r & 63);
    }

    /// Appends one enriched row. The bitset vectors are pre-sized by
    /// `new`, so `r` must stay below the row count `new` was given.
    #[inline]
    fn push_row(&mut self, row: ChunkRow) {
        let r = self.chunk.at.len();
        if row.fragment {
            Self::set_bit(&mut self.chunk.fragment_bits, r);
        }
        if row.dropped {
            Self::set_bit(&mut self.chunk.dropped_bits, r);
        }
        if row.active {
            Self::set_bit(&mut self.chunk.active_bits, r);
        }
        self.chunk.at.push(row.at);
        self.chunk.src_ip.push(row.src_ip);
        self.chunk.dst_ip.push(row.dst_ip);
        self.chunk.src_port.push(row.src_port);
        self.chunk.dst_port.push(row.dst_port);
        self.chunk.protocol.push(row.protocol);
        self.chunk.packet_len.push(row.packet_len);
        self.chunk.ingress.push(row.ingress);
        self.chunk.egress.push(row.egress);
        self.chunk.origin.push(row.origin);
        self.chunk.dst_pid.push(row.dst_pid);
        self.chunk.src_pid.push(row.src_pid);
        self.chunk.active_pid.push(row.active_pid);
    }

    fn seal(mut self) -> SealedChunk {
        let (min_at, max_at) = self
            .chunk
            .at
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        self.chunk.min_at = min_at;
        self.chunk.max_at = max_at;
        // Bitsets were pre-sized for a full chunk; a partial seal (end of
        // stream) must shrink them to the ABI's `len.div_ceil(64)` words.
        let words = self.chunk.at.len().div_ceil(abi::FLAG_WORD_BITS);
        self.chunk.fragment_bits.truncate(words);
        self.chunk.dropped_bits.truncate(words);
        self.chunk.active_bits.truncate(words);
        self.chunk
    }
}

/// The sealed-chunk columnar flow store. See the module docs and
/// `docs/CHUNK_ABI.md` for layout and determinism notes.
pub struct ColumnarFlows {
    chunks: Vec<SealedChunk>,
    /// Total samples across all chunks.
    len: usize,
    /// log2 of the chunk capacity; global index `i` lives in chunk
    /// `i >> cap_shift`, row `i & ((1 << cap_shift) - 1)`.
    cap_shift: u32,
    /// Sorted, deduplicated ASN intern table.
    asns: Vec<Asn>,
    /// Interval-holding prefixes, in `BTreeMap` (prefix) order.
    active_prefixes: Vec<Prefix>,
    buckets: TimeBuckets,
    /// Window-query observability counters (not part of the value: cloned
    /// as a snapshot, ignored by equality, never serialized).
    stats: WindowStats,
}

/// Relaxed atomic counters behind the per-chunk `--timings` stats.
#[derive(Debug, Default)]
struct WindowStats {
    /// Window-bound lookups answered ([`ColumnarFlows::time_range`] makes
    /// two per call).
    queries: AtomicU64,
    /// Lookups that needed an in-chunk binary search (the rest were
    /// answered by chunk headers alone).
    probes: AtomicU64,
}

impl Clone for WindowStats {
    fn clone(&self) -> Self {
        Self {
            queries: AtomicU64::new(self.queries.load(Ordering::Relaxed)),
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for ColumnarFlows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarFlows")
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .field("chunk_capacity", &self.chunk_capacity())
            .finish_non_exhaustive()
    }
}

impl Clone for ColumnarFlows {
    fn clone(&self) -> Self {
        Self {
            chunks: self.chunks.clone(),
            len: self.len,
            cap_shift: self.cap_shift,
            asns: self.asns.clone(),
            active_prefixes: self.active_prefixes.clone(),
            buckets: self.buckets.clone(),
            stats: self.stats.clone(),
        }
    }
}

/// Equality is over the stored value (chunks, tables, capacity) — the
/// observability counters are excluded, so two stores that answered
/// different query mixes still compare equal.
impl PartialEq for ColumnarFlows {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.cap_shift == other.cap_shift
            && self.chunks == other.chunks
            && self.asns == other.asns
            && self.active_prefixes == other.active_prefixes
            && self.buckets == other.buckets
    }
}

/// Result of [`ColumnarFlows::build_enriched`]: the columns plus the
/// compiled blackhole-prefix LPM and id table, handed onward so
/// [`SampleIndex::from_columns`](crate::index::SampleIndex::from_columns)
/// is guaranteed to use the same dense ids the columns were enriched with.
pub struct EnrichedBuild {
    /// The enriched sealed-chunk store.
    pub columns: ColumnarFlows,
    /// Frozen LPM over every blackholed prefix; payload is the dense id.
    pub blackholes: FrozenLpm<usize>,
    /// Dense id → blackholed prefix, first-announcement order.
    pub blackhole_prefixes: Vec<Prefix>,
}

/// Snapshot of the store's shape and window-query behaviour, rendered by
/// `rtbh analyze --timings`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStats {
    /// Number of sealed chunks.
    pub chunks: usize,
    /// Chunk capacity (rows per chunk, power of two).
    pub capacity: usize,
    /// Total samples stored.
    pub samples: usize,
    /// Mean chunk fill: `samples / (chunks * capacity)` (1.0 when every
    /// chunk is full; only the last chunk can be partial).
    pub fill: f64,
    /// Window-bound lookups answered so far.
    pub window_queries: u64,
    /// Lookups that binary-searched inside a chunk (the remainder were
    /// resolved by the min/max headers alone).
    pub chunks_probed: u64,
    /// Share of per-query chunk work avoided by header pruning: of the
    /// `window_queries * chunks` chunk visits a naive scan would make,
    /// the fraction that never happened.
    pub pruned_ratio: f64,
}

/// Normalizes a requested chunk capacity: `0` selects
/// [`abi::DEFAULT_CHUNK_CAPACITY`]; anything else is clamped to
/// `[MIN_CHUNK_CAPACITY, MAX_CHUNK_CAPACITY]` and rounded up to a power
/// of two. Returns `(capacity, log2(capacity))`.
fn normalize_capacity(requested: usize) -> (usize, u32) {
    let requested = if requested == 0 {
        abi::DEFAULT_CHUNK_CAPACITY
    } else {
        requested
    };
    let capacity = requested
        .clamp(abi::MIN_CHUNK_CAPACITY, abi::MAX_CHUNK_CAPACITY)
        .next_power_of_two();
    (capacity, capacity.trailing_zeros())
}

/// The raw index of kept row `kept`, given the sorted raw indices of the
/// removed rows: the kept rows before `removed[m]` number `removed[m] - m`,
/// which never decreases in `m`, so a binary search counts the removed
/// rows that precede kept row `kept`.
fn raw_row(removed: &[u32], kept: usize) -> usize {
    let (mut lo, mut hi) = (0, removed.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if removed[mid] as usize - mid <= kept {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    kept + lo
}

/// A bounded-memory ring of [`SealedChunk`]s for the streaming analyzer
/// ([`crate::stream`]): rows append into an open `ChunkBuilder`, seal
/// into an immutable chunk at capacity, and sealed chunks older than a
/// retention watermark are evicted from the front.
///
/// The ring reuses the batch store's chunk ABI verbatim (same columns,
/// same bitsets, same headers — see `docs/CHUNK_ABI.md`), so every scan
/// kernel written against [`SealedChunk`] works on live state unchanged.
/// Global row indices keep counting across evictions: chunk `start`
/// headers are `k * capacity` for monotonically increasing `k`, exactly
/// as in a batch build, just with a trimmed front.
#[derive(Debug)]
pub struct ChunkRing {
    capacity: usize,
    open: Option<ChunkBuilder>,
    sealed: VecDeque<SealedChunk>,
    /// Global index the next pushed row receives.
    next_row: usize,
    /// Rows ever pushed (never decremented by eviction).
    total_rows: usize,
    evicted_chunks: usize,
    evicted_rows: usize,
}

impl std::fmt::Debug for ChunkBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkBuilder")
            .field("start", &self.chunk.start)
            .field("rows", &self.chunk.at.len())
            .finish_non_exhaustive()
    }
}

impl ChunkRing {
    /// An empty ring with the given chunk capacity (`0` = the ABI default;
    /// clamped to a power of two in `[MIN_CHUNK_CAPACITY,
    /// MAX_CHUNK_CAPACITY]` like every other build path).
    pub fn new(chunk_capacity: usize) -> Self {
        let (capacity, _) = normalize_capacity(chunk_capacity);
        Self {
            capacity,
            open: None,
            sealed: VecDeque::new(),
            next_row: 0,
            total_rows: 0,
            evicted_chunks: 0,
            evicted_rows: 0,
        }
    }

    /// The normalized chunk capacity (rows per sealed chunk).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows currently held (open chunk + retained sealed chunks).
    pub fn len(&self) -> usize {
        self.sealed.iter().map(SealedChunk::len).sum::<usize>() + self.open_len()
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.open_len() == 0
    }

    /// Rows in the open (unsealed) chunk.
    pub fn open_len(&self) -> usize {
        self.open.as_ref().map_or(0, |b| b.chunk.at.len())
    }

    /// Rows ever pushed, including evicted ones.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Sealed chunks evicted so far.
    pub fn evicted_chunks(&self) -> usize {
        self.evicted_chunks
    }

    /// Rows evicted so far.
    pub fn evicted_rows(&self) -> usize {
        self.evicted_rows
    }

    /// The retained sealed chunks, oldest first.
    pub fn sealed(&self) -> impl Iterator<Item = &SealedChunk> {
        self.sealed.iter()
    }

    /// Number of retained sealed chunks.
    pub fn sealed_count(&self) -> usize {
        self.sealed.len()
    }

    /// The open (unsealed) chunk, when it holds rows. Its `min_at`/`max_at`
    /// headers are **stale** (`i64::MAX`/`i64::MIN`) until sealing — scans
    /// over the open chunk must read the `at` column directly instead of
    /// pruning by headers.
    pub fn open_chunk(&self) -> Option<&SealedChunk> {
        self.open.as_ref().map(|b| &b.chunk)
    }

    /// Appends one enriched row; seals the open chunk when it reaches
    /// capacity.
    pub fn push(&mut self, row: ChunkRow) {
        let (start, capacity) = (self.next_row, self.capacity);
        let b = self
            .open
            .get_or_insert_with(|| ChunkBuilder::new(start, capacity));
        b.push_row(row);
        self.next_row += 1;
        self.total_rows += 1;
        if self.open_len() >= self.capacity {
            self.seal_open();
        }
    }

    /// Seals the open chunk (if it holds any rows) regardless of fill —
    /// called at end of stream so the tail rows become scannable.
    pub fn seal_open(&mut self) {
        if let Some(b) = self.open.take() {
            if !b.chunk.at.is_empty() {
                self.sealed.push_back(b.seal());
            }
        }
    }

    /// Evicts sealed chunks whose newest row is older than `cutoff`
    /// (milliseconds): pops from the front while `max_at < cutoff`.
    /// Returns the number of chunks evicted. The open chunk is never
    /// evicted.
    pub fn evict_before(&mut self, cutoff_ms: i64) -> usize {
        let mut evicted = 0;
        while let Some(front) = self.sealed.front() {
            if front.max_at_millis() >= cutoff_ms {
                break;
            }
            let chunk = self.sealed.pop_front().expect("front exists");
            self.evicted_rows += chunk.len();
            self.evicted_chunks += 1;
            evicted += 1;
        }
        evicted
    }

    /// Validates every ring invariant, panicking with a description on the
    /// first violation. The `fuzz_stream` targets call this after every
    /// hostile feed; it is cheap relative to a fuzz iteration but scans
    /// all retained rows, so production paths only run it under
    /// `debug_assertions`.
    pub fn check_invariants(&self) {
        let mut expected_start = None;
        for c in &self.sealed {
            assert!(!c.is_empty(), "sealed chunks are never empty");
            assert!(
                c.len() <= self.capacity,
                "chunk holds {} rows, capacity {}",
                c.len(),
                self.capacity
            );
            if let Some(expected) = expected_start {
                // Eviction only trims the front, so retained chunks stay
                // contiguous in global row indices.
                assert_eq!(
                    c.start(),
                    expected,
                    "retained chunks must be contiguous: start {} after {}",
                    c.start(),
                    expected
                );
            }
            expected_start = Some(c.start() + c.len());
            let (min, max) = c
                .at_millis()
                .iter()
                .fold((i64::MAX, i64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
            assert_eq!(c.min_at_millis(), min, "min_at header out of sync");
            assert_eq!(c.max_at_millis(), max, "max_at header out of sync");
            let words = c.len().div_ceil(abi::FLAG_WORD_BITS);
            for (name, bits) in [
                ("fragment", c.fragment_words()),
                ("dropped", c.dropped_words()),
                ("active", c.active_words()),
            ] {
                assert_eq!(bits.len(), words, "{name} bitset word count");
                let tail = c.len() % abi::FLAG_WORD_BITS;
                if tail != 0 {
                    let mask = !0u64 << tail;
                    assert_eq!(
                        bits[words - 1] & mask,
                        0,
                        "{name} bitset has tail bits set past row {}",
                        c.len()
                    );
                }
            }
            for (name, len) in [
                ("src_ip", c.src_ip_raw().len()),
                ("dst_ip", c.dst_ip_raw().len()),
                ("src_port", c.src_ports().len()),
                ("dst_port", c.dst_ports().len()),
                ("protocol", c.protocols().len()),
                ("packet_len", c.packet_lens().len()),
                ("ingress", c.ingress_ids().len()),
                ("egress", c.egress_ids().len()),
                ("origin", c.origin_ids().len()),
                ("dst_pid", c.dst_prefix_ids().len()),
                ("src_pid", c.src_prefix_ids().len()),
                ("active_pid", c.active_prefix_ids().len()),
            ] {
                assert_eq!(len, c.len(), "{name} column length out of sync");
            }
        }
        if let Some(b) = &self.open {
            assert!(
                b.chunk.at.len() < self.capacity,
                "open chunk at or past capacity must have sealed"
            );
            if let Some(expected) = expected_start {
                assert_eq!(b.chunk.start, expected, "open chunk start out of sync");
            }
        }
        assert_eq!(
            self.total_rows, self.next_row,
            "row counter out of sync with next index"
        );
        assert_eq!(
            self.len() + self.evicted_rows,
            self.total_rows,
            "held + evicted rows must equal total pushed"
        );
    }
}

impl ColumnarFlows {
    /// Builds sealed chunks **and** runs the one-pass enrichment over
    /// `workers` scoped threads at the default chunk capacity
    /// ([`abi::DEFAULT_CHUNK_CAPACITY`]): every per-sample id any stage
    /// needs (interned member/origin ASNs, blackhole-prefix ids, activity
    /// bit) is computed here, exactly once, in a single pass over the
    /// samples.
    ///
    /// This is prepare's sealing kernel with no internal MACs, nothing
    /// removed and a zero clock offset: `flows` is taken as already
    /// cleaned and aligned. `Analyzer::new` seals the raw corpus log
    /// through the same kernel.
    ///
    /// Byte-deterministic for every worker count: chunk boundaries are
    /// fixed by the capacity alone, workers seal whole chunks, and the
    /// chunks are reassembled in order. All lookup tables are built before
    /// the parallel section.
    pub fn build_enriched(
        updates: &UpdateLog,
        flows: &FlowLog,
        resolver: &MacResolver,
        origins: &OriginTable,
        corpus_end: Timestamp,
        workers: usize,
    ) -> EnrichedBuild {
        Self::build_enriched_with_capacity(
            updates, flows, resolver, origins, corpus_end, workers, 0,
        )
    }

    /// [`ColumnarFlows::build_enriched`] with an explicit chunk capacity
    /// (`0` = default; clamped to a power of two in
    /// `[MIN_CHUNK_CAPACITY, MAX_CHUNK_CAPACITY]`). The
    /// capacity changes only how rows are sliced into slabs — never the
    /// row order or any per-row value — so every downstream report is
    /// byte-identical for every capacity (pinned by the `columns_diff`
    /// differential suite).
    pub fn build_enriched_with_capacity(
        updates: &UpdateLog,
        flows: &FlowLog,
        resolver: &MacResolver,
        origins: &OriginTable,
        corpus_end: Timestamp,
        workers: usize,
        chunk_capacity: usize,
    ) -> EnrichedBuild {
        let enricher =
            SampleEnricher::new(resolver.map(), &[], origins).with_blackholes(updates, corpus_end);
        Self::seal(
            flows.samples(),
            &[],
            TimeDelta::ZERO,
            enricher,
            workers,
            chunk_capacity,
        )
    }

    /// Pass 2 of prepare: seals the raw samples minus the `removed` ones
    /// (sorted raw indices, as pass 1 found them) straight into enriched
    /// chunks, with every timestamp moved by `offset`. No intermediate
    /// sample log is built.
    ///
    /// Chunk `k` holds kept rows `[k·C, (k+1)·C)`, so chunk bounds depend
    /// on the capacity alone; each chunk finds its first raw row from
    /// `removed` and enriches rows from there, skipping the internal ones
    /// exactly as pass 1 marked them (both read the same MAC table).
    pub(crate) fn seal(
        samples: &[FlowSample],
        removed: &[u32],
        offset: TimeDelta,
        enricher: SampleEnricher,
        workers: usize,
        chunk_capacity: usize,
    ) -> EnrichedBuild {
        let (capacity, cap_shift) = normalize_capacity(chunk_capacity);
        let n = samples.len() - removed.len();
        let seal = |start: usize, rows: usize| -> SealedChunk {
            let mut b = ChunkBuilder::new(start, rows);
            let raw = samples[raw_row(removed, start)..]
                .iter()
                .filter_map(|s| enricher.row(s, offset));
            for row in raw.take(rows) {
                b.push_row(row);
            }
            b.seal()
        };

        // The worker count only distributes whole chunks over threads.
        let bounds: Vec<usize> = (0..n).step_by(capacity).collect();
        let chunks: Vec<SealedChunk> = if bounds.is_empty() {
            Vec::new()
        } else {
            shard::map_chunks(&bounds, shard::resolve_workers(workers), |_, starts| {
                starts
                    .iter()
                    .map(|&s| seal(s, capacity.min(n - s)))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };

        let tables = enricher.into_tables();
        let buckets = TimeBuckets::build(&chunks);
        EnrichedBuild {
            columns: ColumnarFlows {
                chunks,
                len: n,
                cap_shift,
                asns: tables.asns,
                active_prefixes: tables.active_prefixes,
                buckets,
                stats: WindowStats::default(),
            },
            blackholes: tables.blackholes,
            blackhole_prefixes: tables.blackhole_prefixes,
        }
    }

    /// Base columns only (empty enrichment tables) — for callers that need
    /// the layout and the window index but no control-plane context, e.g.
    /// micro-benches and unit tests.
    pub fn from_log(flows: &FlowLog) -> Self {
        Self::from_log_with_capacity(flows, 0)
    }

    /// [`ColumnarFlows::from_log`] with an explicit chunk capacity
    /// (`0` = default).
    pub fn from_log_with_capacity(flows: &FlowLog, chunk_capacity: usize) -> Self {
        Self::build_enriched_with_capacity(
            &UpdateLog::new(),
            flows,
            &MacResolver::from_map(BTreeMap::new()),
            &OriginTable::build(&[]),
            Timestamp::EPOCH,
            1,
            chunk_capacity,
        )
        .columns
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sealed chunks, in sample order. Chunk `k` holds global samples
    /// `[k * capacity, min((k + 1) * capacity, len))` — every chunk except
    /// the last is exactly full.
    #[inline]
    pub fn chunks(&self) -> &[SealedChunk] {
        &self.chunks
    }

    /// The chunk capacity (rows per chunk, a power of two).
    #[inline]
    pub fn chunk_capacity(&self) -> usize {
        1usize << self.cap_shift
    }

    /// Locates global sample `i`: `(chunk, chunk-local row)`.
    #[inline]
    fn loc(&self, i: usize) -> (&SealedChunk, usize) {
        let mask = (1usize << self.cap_shift) - 1;
        (&self.chunks[i >> self.cap_shift], i & mask)
    }

    /// Timestamp of sample `i`.
    #[inline]
    pub fn at(&self, i: usize) -> Timestamp {
        let (c, r) = self.loc(i);
        Timestamp(c.at[r])
    }

    /// Source address of sample `i`.
    #[inline]
    pub fn src_ip(&self, i: usize) -> Ipv4Addr {
        Ipv4Addr::from_u32(self.src_ip_raw(i))
    }

    /// Destination address of sample `i`.
    #[inline]
    pub fn dst_ip(&self, i: usize) -> Ipv4Addr {
        let (c, r) = self.loc(i);
        Ipv4Addr::from_u32(c.dst_ip[r])
    }

    /// Source address of sample `i` as a raw `u32`.
    #[inline]
    pub fn src_ip_raw(&self, i: usize) -> u32 {
        let (c, r) = self.loc(i);
        c.src_ip[r]
    }

    /// Source port of sample `i`.
    #[inline]
    pub fn src_port(&self, i: usize) -> u16 {
        let (c, r) = self.loc(i);
        c.src_port[r]
    }

    /// Destination port of sample `i`.
    #[inline]
    pub fn dst_port(&self, i: usize) -> u16 {
        let (c, r) = self.loc(i);
        c.dst_port[r]
    }

    /// Protocol of sample `i` (canonicalized, see the module docs).
    #[inline]
    pub fn protocol(&self, i: usize) -> Protocol {
        Protocol::from_number(self.protocol_raw(i))
    }

    /// Raw wire protocol number of sample `i`.
    #[inline]
    pub fn protocol_raw(&self, i: usize) -> u8 {
        let (c, r) = self.loc(i);
        c.protocol[r]
    }

    /// Sampled packet length of sample `i` (stored as `u32` per the ABI;
    /// the wire format's lengths are `u16`, so no value is truncated).
    #[inline]
    pub fn packet_len(&self, i: usize) -> u32 {
        let (c, r) = self.loc(i);
        c.packet_len[r]
    }

    /// Was sample `i` an IP fragment?
    #[inline]
    pub fn fragment(&self, i: usize) -> bool {
        let (c, r) = self.loc(i);
        c.fragment(r)
    }

    /// Was sample `i` delivered to the blackhole next hop?
    #[inline]
    pub fn is_dropped(&self, i: usize) -> bool {
        let (c, r) = self.loc(i);
        c.dropped(r)
    }

    /// The ingress (handover) member ASN of sample `i`, if known.
    #[inline]
    pub fn ingress(&self, i: usize) -> Option<Asn> {
        let (c, r) = self.loc(i);
        self.asn_lookup(c.ingress[r])
    }

    /// The egress member ASN of sample `i` (None for dropped samples).
    #[inline]
    pub fn egress(&self, i: usize) -> Option<Asn> {
        let (c, r) = self.loc(i);
        self.asn_lookup(c.egress[r])
    }

    /// The origin AS of sample `i`'s source address, if routed.
    #[inline]
    pub fn origin(&self, i: usize) -> Option<Asn> {
        let (c, r) = self.loc(i);
        self.asn_lookup(c.origin[r])
    }

    /// Resolves an interned ASN id (from an `ingress`/`egress`/`origin`
    /// id column) against the intern table; [`NONE`] maps to `None`.
    #[inline]
    pub fn asn_lookup(&self, id: u32) -> Option<Asn> {
        (id != NONE).then(|| self.asns[id as usize])
    }

    /// The interval-holding prefix covering sample `i`'s destination, plus
    /// whether its blackhole was active at the sample's timestamp.
    #[inline]
    pub fn active_prefix(&self, i: usize) -> Option<(Prefix, bool)> {
        let (c, r) = self.loc(i);
        let pid = c.active_pid[r];
        (pid != NONE).then(|| (self.active_prefixes[pid as usize], c.active(r)))
    }

    /// Resolves an interval-holding prefix id (from an `active_pid`
    /// column) to its prefix.
    #[inline]
    pub fn active_prefix_lookup(&self, pid: u32) -> Prefix {
        self.active_prefixes[pid as usize]
    }

    /// The interval-holding prefixes, indexed by `active_pid`.
    pub fn active_prefixes(&self) -> &[Prefix] {
        &self.active_prefixes
    }

    /// The sorted ASN intern table.
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// Global index range `[lo, hi)` of samples with
    /// `start <= at < end`, answered by chunk-header pruning plus at most
    /// one in-chunk binary search per bound.
    pub fn time_range(&self, start: Timestamp, end: Timestamp) -> (usize, usize) {
        (self.bound(start.as_millis()), self.bound(end.as_millis()))
    }

    /// One window bound (`partition_point` of the virtual concatenated
    /// timestamp column), with observability counters.
    fn bound(&self, t: i64) -> usize {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let (idx, probed) = self.buckets.lower_bound_impl(&self.chunks, self.len, t);
        if probed {
            self.stats.probes.fetch_add(1, Ordering::Relaxed);
        }
        idx
    }

    /// Restricts a sorted sample-id slice (e.g. a
    /// [`SampleIndex`](crate::index::SampleIndex) `towards`/`from` list)
    /// to ids whose sample time falls in `[start, end)`.
    ///
    /// Equivalent to filtering `ids` by each sample's timestamp — because
    /// both `ids` and the timestamp column are sorted, the time window
    /// maps to one contiguous id range. The window bounds come from
    /// chunk-header pruning ([`TimeBuckets`]); the id list is then joined
    /// against them with [`gallop_partition_point`], which costs
    /// O(log distance) rather than O(log len) per bound.
    pub fn window_ids<'a>(&self, ids: &'a [u32], start: Timestamp, end: Timestamp) -> &'a [u32] {
        let (glo, ghi) = self.time_range(start, end);
        let lo = gallop_partition_point(ids, 0, glo as u32);
        let hi = gallop_partition_point(ids, lo, ghi as u32);
        &ids[lo..hi]
    }

    /// Shape and window-query counters for `--timings` (see
    /// [`ChunkStats`]). Counters accumulate over the store's lifetime.
    pub fn chunk_stats(&self) -> ChunkStats {
        let chunks = self.chunks.len();
        let capacity = self.chunk_capacity();
        let queries = self.stats.queries.load(Ordering::Relaxed);
        let probes = self.stats.probes.load(Ordering::Relaxed);
        let naive_visits = queries.saturating_mul(chunks as u64);
        ChunkStats {
            chunks,
            capacity,
            samples: self.len,
            fill: if chunks == 0 {
                0.0
            } else {
                self.len as f64 / (chunks * capacity) as f64
            },
            window_queries: queries,
            chunks_probed: probes,
            pruned_ratio: if naive_visits == 0 {
                0.0
            } else {
                1.0 - probes as f64 / naive_visits as f64
            },
        }
    }
}

/// `partition_point` for a sorted `u32` slice via galloping (exponential)
/// search: the first index `>= from` whose element is `>= bound`.
///
/// Equivalent to `from + ids[from..].partition_point(|&x| x < bound)`, but
/// probes at exponentially growing strides from `from` before binary
/// searching the bracketed range — O(log d) comparisons where `d` is the
/// distance from `from` to the answer. Window × prefix-id joins resolve
/// near the front of the id list far more often than not, which is where
/// galloping beats a full-width binary search.
///
/// # Example
///
/// ```
/// use rtbh_core::columns::gallop_partition_point;
///
/// let ids = [2u32, 3, 5, 8, 13, 21];
/// assert_eq!(gallop_partition_point(&ids, 0, 6), 3);
/// // Resuming from a previous bound skips the prefix entirely.
/// assert_eq!(gallop_partition_point(&ids, 3, 100), 6);
/// assert_eq!(gallop_partition_point(&ids, 0, 1), 0);
/// ```
pub fn gallop_partition_point(ids: &[u32], from: usize, bound: u32) -> usize {
    let n = ids.len();
    if from >= n || ids[from] >= bound {
        return from.min(n);
    }
    // Invariant: ids[lo] < bound. Double the stride until it overshoots.
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < n && ids[lo + step] < bound {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(n);
    lo + 1 + ids[lo + 1..hi].partition_point(|&x| x < bound)
}

/// Chunk-pruning window index over the sealed chunks' timestamp headers.
///
/// With time-sorted samples the per-chunk `max_at` sequence is
/// non-decreasing, so the chunk containing a window bound is found by a
/// binary search over headers ([`TimeBuckets::prune`]); only that single
/// chunk's timestamp slab is then binary-searched. Bounds that fall
/// between chunks (or before/after the corpus) are answered by headers
/// alone, without touching any column data.
///
/// # Example
///
/// ```
/// use rtbh_core::columns::{ColumnarFlows, TimeBuckets};
/// use rtbh_fabric::{FlowLog, FlowSample};
/// use rtbh_net::{MacAddr, Protocol, Timestamp};
///
/// # let samples: Vec<FlowSample> = (0..100)
/// #     .map(|i| FlowSample {
/// #         at: Timestamp(i * 1_000),
/// #         src_mac: MacAddr::from_id(1),
/// #         dst_mac: MacAddr::from_id(2),
/// #         src_ip: "192.0.2.1".parse().unwrap(),
/// #         dst_ip: "198.51.100.9".parse().unwrap(),
/// #         protocol: Protocol::Udp,
/// #         src_port: 53,
/// #         dst_port: 4444,
/// #         packet_len: 512,
/// #         fragment: false,
/// #     })
/// #     .collect();
/// // 100 samples, one second apart, in chunks of 64 rows.
/// let cols = ColumnarFlows::from_log_with_capacity(&FlowLog::from_samples(samples), 64);
/// let buckets = TimeBuckets::build(cols.chunks());
/// // t = 70 s: chunk 0 (max 63 s) is pruned by its header alone; only
/// // chunk 1's timestamps are searched.
/// assert_eq!(buckets.prune(70_000), 1);
/// assert_eq!(buckets.lower_bound(cols.chunks(), 70_000), 70);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeBuckets {
    /// `max_at` header of each chunk; non-decreasing for time-sorted
    /// samples.
    chunk_max: Vec<i64>,
}

impl TimeBuckets {
    /// Builds the pruning index from the chunks' `max_at` headers.
    pub fn build(chunks: &[SealedChunk]) -> Self {
        Self {
            chunk_max: chunks.iter().map(|c| c.max_at_millis()).collect(),
        }
    }

    /// The index of the first chunk whose `max_at >= t` — the only chunk
    /// that can contain the boundary `partition_point(|&x| x < t)`.
    /// Returns the chunk count when every chunk ends before `t`.
    pub fn prune(&self, t: i64) -> usize {
        self.chunk_max.partition_point(|&m| m < t)
    }

    /// The global index of the first sample with timestamp `>= t` (i.e.
    /// `partition_point(|&x| x < t)` over the virtual concatenation of all
    /// chunk timestamp columns). `chunks` must be the slice this index was
    /// built over.
    pub fn lower_bound(&self, chunks: &[SealedChunk], t: i64) -> usize {
        let len = chunks.last().map_or(0, |c| c.start() + c.len());
        self.lower_bound_impl(chunks, len, t).0
    }

    /// [`TimeBuckets::lower_bound`] plus whether an in-chunk binary search
    /// was needed (false = answered by headers alone).
    fn lower_bound_impl(&self, chunks: &[SealedChunk], len: usize, t: i64) -> (usize, bool) {
        let c = self.prune(t);
        if c == chunks.len() {
            return (len, false);
        }
        let chunk = &chunks[c];
        if t <= chunk.min_at_millis() {
            // The bound falls on or before this chunk's first row — every
            // earlier chunk is entirely below `t` by its header.
            return (chunk.start(), false);
        }
        (
            chunk.start() + chunk.at_millis().partition_point(|&x| x < t),
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_bgp::{BgpUpdate, UpdateKind};
    use rtbh_net::{Community, MacAddr};
    use rtbh_rng::{ChaChaRng, Rng};

    fn ts(min: i64) -> Timestamp {
        Timestamp(min * 60_000)
    }

    fn update(min: i64, prefix: &str, kind: UpdateKind) -> BgpUpdate {
        BgpUpdate {
            at: ts(min),
            peer: Asn(65_001),
            prefix: prefix.parse().unwrap(),
            origin: Asn(65_001),
            kind,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    fn sample(min: i64, src: &str, dst: &str, dropped: bool) -> FlowSample {
        FlowSample {
            at: ts(min),
            src_mac: MacAddr::from_id(1),
            dst_mac: if dropped {
                MacAddr::BLACKHOLE
            } else {
                MacAddr::from_id(2)
            },
            src_ip: src.parse().unwrap(),
            dst_ip: dst.parse().unwrap(),
            protocol: Protocol::Udp,
            src_port: 53,
            dst_port: 4444,
            packet_len: 1400,
            fragment: min % 2 == 0,
        }
    }

    fn test_resolver() -> MacResolver {
        let mut map = BTreeMap::new();
        map.insert(MacAddr::from_id(1), Asn(201));
        map.insert(MacAddr::from_id(2), Asn(202));
        MacResolver::from_map(map)
    }

    fn test_updates() -> UpdateLog {
        UpdateLog::from_updates(vec![
            update(0, "10.0.0.0/24", UpdateKind::Announce),
            update(0, "10.0.0.7/32", UpdateKind::Announce),
            update(50, "10.0.0.7/32", UpdateKind::Withdraw),
        ])
    }

    fn build(mins: &[i64]) -> (EnrichedBuild, FlowLog) {
        let updates = test_updates();
        let flows = FlowLog::from_samples(
            mins.iter()
                .map(|&m| sample(m, "20.1.0.5", "10.0.0.7", m < 50))
                .collect(),
        );
        let origins = OriginTable::build(&[("20.0.0.0/8".parse().unwrap(), Asn(300))]);
        let built =
            ColumnarFlows::build_enriched(&updates, &flows, &test_resolver(), &origins, ts(100), 1);
        (built, flows)
    }

    #[test]
    fn enrichment_matches_per_sample_lookups() {
        let (built, flows) = build(&[1, 10, 49, 60, 90]);
        let cols = &built.columns;
        assert_eq!(cols.len(), flows.len());
        for (i, s) in flows.samples().iter().enumerate() {
            assert_eq!(cols.at(i), s.at);
            assert_eq!(cols.src_ip(i), s.src_ip);
            assert_eq!(cols.dst_ip(i), s.dst_ip);
            assert_eq!(cols.protocol(i), s.protocol);
            assert_eq!(cols.packet_len(i), u32::from(s.packet_len));
            assert_eq!(cols.fragment(i), s.fragment);
            assert_eq!(cols.is_dropped(i), s.is_dropped());
            assert_eq!(cols.ingress(i), Some(Asn(201)));
            assert_eq!(cols.egress(i), (!s.is_dropped()).then_some(Asn(202)));
            assert_eq!(cols.origin(i), Some(Asn(300)));
        }
        // 10.0.0.7 is covered by the /32 (longest match) for the sample
        // index, and the /32's blackhole interval is [0, 50).
        let id32 = built
            .blackhole_prefixes
            .iter()
            .position(|p| p.len() == 32)
            .unwrap() as u32;
        let dst_pids: Vec<u32> = cols
            .chunks()
            .iter()
            .flat_map(|c| c.dst_prefix_ids().iter().copied())
            .collect();
        let src_pids: Vec<u32> = cols
            .chunks()
            .iter()
            .flat_map(|c| c.src_prefix_ids().iter().copied())
            .collect();
        assert!(dst_pids.iter().all(|&id| id == id32));
        assert!(src_pids.iter().all(|&id| id == NONE));
        let actives: Vec<bool> = (0..cols.len())
            .map(|i| cols.active_prefix(i).unwrap().1)
            .collect();
        assert_eq!(actives, [true, true, true, false, false]);
        assert_eq!(
            cols.active_prefix(0).unwrap().0,
            "10.0.0.7/32".parse().unwrap()
        );
    }

    #[test]
    fn build_is_worker_count_invariant() {
        let mins: Vec<i64> = (0..157).map(|i| i % 97).collect();
        let (reference, flows) = build(&mins);
        let origins = OriginTable::build(&[("20.0.0.0/8".parse().unwrap(), Asn(300))]);
        let updates = test_updates();
        for workers in [2, 3, 16] {
            let sharded = ColumnarFlows::build_enriched(
                &updates,
                &flows,
                &test_resolver(),
                &origins,
                ts(100),
                workers,
            );
            assert_eq!(reference.columns, sharded.columns, "{workers} workers");
        }
    }

    #[test]
    fn chunk_capacity_changes_slicing_but_not_values() {
        let mins: Vec<i64> = (0..311).map(|i| i % 97).collect();
        let (reference, flows) = build(&mins);
        let origins = OriginTable::build(&[("20.0.0.0/8".parse().unwrap(), Asn(300))]);
        let updates = test_updates();
        let reference = &reference.columns;
        for capacity in [64usize, 128, 1 << 20] {
            let built = ColumnarFlows::build_enriched_with_capacity(
                &updates,
                &flows,
                &test_resolver(),
                &origins,
                ts(100),
                3,
                capacity,
            )
            .columns;
            assert_eq!(built.chunk_capacity(), capacity);
            assert_eq!(built.len(), reference.len());
            // Every chunk except the last is exactly full, headers bracket
            // the rows, and per-sample values are capacity-invariant.
            for (k, c) in built.chunks().iter().enumerate() {
                assert_eq!(c.start(), k * capacity);
                if k + 1 < built.chunks().len() {
                    assert_eq!(c.len(), capacity);
                }
                assert_eq!(
                    c.min_at_millis(),
                    c.at_millis().iter().copied().min().unwrap()
                );
                assert_eq!(
                    c.max_at_millis(),
                    c.at_millis().iter().copied().max().unwrap()
                );
            }
            for i in 0..reference.len() {
                assert_eq!(built.at(i), reference.at(i), "cap {capacity} sample {i}");
                assert_eq!(built.packet_len(i), reference.packet_len(i));
                assert_eq!(built.fragment(i), reference.fragment(i));
                assert_eq!(built.is_dropped(i), reference.is_dropped(i));
                assert_eq!(built.ingress(i), reference.ingress(i));
                assert_eq!(built.active_prefix(i), reference.active_prefix(i));
            }
        }
    }

    #[test]
    fn bitset_tail_bits_are_zero() {
        let mins: Vec<i64> = (0..157).map(|i| i % 97).collect();
        let (built, _) = build(&mins);
        for c in built.columns.chunks() {
            assert_eq!(c.words(), c.len().div_ceil(64));
            let tail = c.len() % 64;
            if tail != 0 {
                let mask = !0u64 << tail;
                for bits in [c.fragment_words(), c.dropped_words(), c.active_words()] {
                    assert_eq!(bits[c.words() - 1] & mask, 0, "tail bits must be zero");
                }
            }
            // The popcount contract: whole-word counting equals rowwise.
            let words: u32 = c.fragment_words().iter().map(|w| w.count_ones()).sum();
            let rows = (0..c.len()).filter(|&r| c.fragment(r)).count() as u32;
            assert_eq!(words, rows);
        }
    }

    #[test]
    fn buckets_match_naive_partition_point_on_seeded_columns() {
        let mut rng = ChaChaRng::seed_from_u64(0x000c_0ffe_ec01_u64);
        for case in 0..40 {
            // Mix densities and capacities: sparse multi-day spans, dense
            // sub-chunk bursts, and multi-chunk stores.
            let n = (rng.next_u64() % 400) as usize;
            let spread: i64 = match case % 3 {
                0 => 90 * 24 * 3_600_000, // ~a measurement period
                1 => 1000,                // one burst, sub-chunk
                _ => 3_600_000,
            };
            let capacity = [64usize, 128, 1 << 16][case % 3];
            let mut at: Vec<i64> = (0..n)
                .map(|_| (rng.next_u64() % spread as u64) as i64)
                .collect();
            at.sort_unstable();
            let flows = FlowLog::from_samples(
                at.iter()
                    .map(|&t| {
                        let mut s = sample(0, "20.1.0.5", "10.0.0.7", false);
                        s.at = Timestamp(t);
                        s
                    })
                    .collect(),
            );
            let cols = ColumnarFlows::from_log_with_capacity(&flows, capacity);
            let buckets = TimeBuckets::build(cols.chunks());
            let mut probes: Vec<i64> = (0..64)
                .map(|_| (rng.next_u64() % (spread as u64 * 2)) as i64 - spread / 2)
                .collect();
            // Exact sample times and chunk boundaries are the edge cases.
            probes.extend(at.iter().take(16).copied());
            probes.extend(at.iter().take(8).map(|t| t + 1));
            probes.extend(
                cols.chunks()
                    .iter()
                    .flat_map(|c| [c.min_at_millis(), c.max_at_millis(), c.max_at_millis() + 1]),
            );
            for t in probes {
                assert_eq!(
                    buckets.lower_bound(cols.chunks(), t),
                    at.partition_point(|&x| x < t),
                    "case {case}, t {t}, n {n}, capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn gallop_matches_partition_point() {
        let mut rng = ChaChaRng::seed_from_u64(0x6a11_0b00_u64);
        for _ in 0..200 {
            let n = (rng.next_u64() % 200) as usize;
            let mut ids: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 500) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            let from = (rng.next_u64() as usize) % (ids.len() + 1);
            let bound = (rng.next_u64() % 520) as u32;
            assert_eq!(
                gallop_partition_point(&ids, from, bound),
                from + ids[from..].partition_point(|&x| x < bound),
                "ids {ids:?} from {from} bound {bound}"
            );
        }
    }

    #[test]
    fn window_ids_match_naive_time_filter() {
        let mut rng = ChaChaRng::seed_from_u64(0x0001_d0c5_u64);
        let mins: Vec<i64> = (0..301).map(|i| i * 3 % 500).collect();
        let (built, flows) = build(&mins);
        let cols = &built.columns;
        let samples = flows.samples();
        for _ in 0..50 {
            // A random sorted subset of ids, like an index towards-list.
            let ids: Vec<u32> = (0..cols.len() as u32)
                .filter(|_| rng.next_u64() % 3 == 0)
                .collect();
            let a = ts((rng.next_u64() % 600) as i64 - 50);
            let b = ts((rng.next_u64() % 600) as i64 - 50);
            let (start, end) = (a.min(b), a.max(b));
            let naive: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&i| {
                    let t = samples[i as usize].at;
                    start <= t && t < end
                })
                .collect();
            assert_eq!(cols.window_ids(&ids, start, end), naive.as_slice());
        }
        let stats = cols.chunk_stats();
        assert_eq!(stats.window_queries, 100);
        assert!(stats.chunks_probed <= stats.window_queries);
    }

    #[test]
    fn empty_log_is_safe() {
        let cols = ColumnarFlows::from_log(&FlowLog::new());
        assert!(cols.is_empty());
        assert!(cols.chunks().is_empty());
        assert_eq!(cols.time_range(ts(0), ts(100)), (0, 0));
        assert_eq!(cols.window_ids(&[], ts(0), ts(100)), &[] as &[u32]);
        let stats = cols.chunk_stats();
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.fill, 0.0);
    }

    #[test]
    fn capacity_normalization_clamps_and_rounds() {
        assert_eq!(normalize_capacity(0).0, abi::DEFAULT_CHUNK_CAPACITY);
        assert_eq!(normalize_capacity(1).0, abi::MIN_CHUNK_CAPACITY);
        assert_eq!(normalize_capacity(64).0, 64);
        assert_eq!(normalize_capacity(100).0, 128);
        assert_eq!(normalize_capacity(usize::MAX).0, abi::MAX_CHUNK_CAPACITY);
        let (cap, shift) = normalize_capacity(1024);
        assert_eq!((cap, shift), (1024, 10));
    }

    /// The written contract and the code must agree: every ABI constant's
    /// width matches the element type actually stored, and every column,
    /// flag and header field is documented by name in `docs/CHUNK_ABI.md`.
    #[test]
    fn abi_constants_match_layout_and_spec_document() {
        use std::mem::size_of;
        let widths: BTreeMap<&str, usize> = abi::VALUE_COLUMNS.iter().copied().collect();
        assert_eq!(widths["at"], size_of::<i64>());
        assert_eq!(widths["src_ip"], size_of::<u32>());
        assert_eq!(widths["dst_ip"], size_of::<u32>());
        assert_eq!(widths["src_port"], size_of::<u16>());
        assert_eq!(widths["dst_port"], size_of::<u16>());
        assert_eq!(widths["protocol"], size_of::<u8>());
        assert_eq!(widths["packet_len"], size_of::<u32>());
        for id_col in [
            "ingress",
            "egress",
            "origin",
            "dst_pid",
            "src_pid",
            "active_pid",
        ] {
            assert_eq!(widths[id_col], size_of::<u32>(), "{id_col}");
        }
        assert_eq!(abi::VALUE_COLUMNS.len(), 13);
        assert_eq!(abi::FLAG_WORD_BITS, u64::BITS as usize);
        assert!(abi::DEFAULT_CHUNK_CAPACITY.is_power_of_two());
        assert!(abi::MIN_CHUNK_CAPACITY.is_power_of_two());
        assert!(abi::MAX_CHUNK_CAPACITY.is_power_of_two());

        let spec = include_str!("../../../docs/CHUNK_ABI.md");
        for (name, width) in abi::VALUE_COLUMNS {
            let cell = format!("| `{name}` ");
            assert!(spec.contains(&cell), "spec is missing column `{name}`");
            assert!(
                spec.contains(&format!("`{name}` | {width} ")),
                "spec width for `{name}` must be {width} bytes"
            );
        }
        for name in abi::FLAG_COLUMNS {
            assert!(
                spec.contains(&format!("| `{name}` |")),
                "spec is missing flag column `{name}`"
            );
        }
        for (name, _) in abi::HEADER_FIELDS {
            assert!(
                spec.contains(&format!("| `{name}` |")),
                "spec is missing header field `{name}`"
            );
        }
        assert!(
            spec.contains(&abi::DEFAULT_CHUNK_CAPACITY.to_string()),
            "spec must state the default chunk capacity"
        );
        assert!(
            spec.contains(&format!(
                "`abi::DICT_SYNC_INTERVAL` (= {})",
                abi::DICT_SYNC_INTERVAL
            )),
            "spec must state the dictionary sync interval"
        );
        // The sync interval shares the flag-word geometry so a sync block
        // never straddles more selection-mask words than one flag word
        // covers rows.
        assert_eq!(abi::DICT_SYNC_INTERVAL, abi::FLAG_WORD_BITS);
        assert!(
            spec.contains(&format!("version {}", abi::ABI_VERSION)),
            "spec must state the ABI version"
        );
    }

    fn row_at(ms: i64) -> ChunkRow {
        ChunkRow {
            at: ms,
            src_ip: 0x0a00_0001,
            dst_ip: 0x0a00_0002,
            src_port: 1,
            dst_port: 2,
            protocol: 17,
            packet_len: 100,
            ingress: NONE,
            egress: NONE,
            origin: NONE,
            dst_pid: NONE,
            src_pid: NONE,
            active_pid: NONE,
            fragment: ms % 3 == 0,
            dropped: ms % 2 == 0,
            active: false,
        }
    }

    #[test]
    fn ring_seals_at_capacity_and_keeps_contiguous_starts() {
        let mut ring = ChunkRing::new(64);
        assert_eq!(ring.capacity(), 64);
        for ms in 0..200 {
            ring.push(row_at(ms));
        }
        assert_eq!(ring.sealed_count(), 3);
        assert_eq!(ring.open_len(), 200 - 3 * 64);
        assert_eq!(ring.len(), 200);
        assert_eq!(ring.total_rows(), 200);
        let starts: Vec<usize> = ring.sealed().map(SealedChunk::start).collect();
        assert_eq!(starts, vec![0, 64, 128]);
        ring.check_invariants();
        ring.seal_open();
        assert_eq!(ring.sealed_count(), 4);
        assert_eq!(ring.open_len(), 0);
        ring.check_invariants();
    }

    #[test]
    fn ring_headers_match_batch_chunks() {
        // The same rows through the ring and through a batch build must
        // produce identical sealed chunks (shared append kernel).
        let samples: Vec<FlowSample> = (0..150)
            .map(|i| FlowSample {
                at: Timestamp(i),
                src_mac: rtbh_net::MacAddr::from_id(1),
                dst_mac: rtbh_net::MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
                protocol: Protocol::Udp,
                src_port: 1,
                dst_port: 2,
                packet_len: 100,
                fragment: i % 3 == 0,
            })
            .collect();
        let batch =
            ColumnarFlows::from_log_with_capacity(&FlowLog::from_samples(samples.clone()), 64);
        let mut ring = ChunkRing::new(64);
        for s in &samples {
            ring.push(ChunkRow {
                at: s.at.as_millis(),
                src_ip: s.src_ip.to_u32(),
                dst_ip: s.dst_ip.to_u32(),
                src_port: s.src_port,
                dst_port: s.dst_port,
                protocol: s.protocol.number(),
                packet_len: u32::from(s.packet_len),
                ingress: NONE,
                egress: NONE,
                origin: NONE,
                dst_pid: NONE,
                src_pid: NONE,
                active_pid: NONE,
                fragment: s.fragment,
                dropped: s.is_dropped(),
                active: false,
            });
        }
        ring.seal_open();
        ring.check_invariants();
        let ring_chunks: Vec<&SealedChunk> = ring.sealed().collect();
        assert_eq!(ring_chunks.len(), batch.chunks().len());
        for (r, b) in ring_chunks.iter().zip(batch.chunks()) {
            assert_eq!(**r, *b);
        }
    }

    #[test]
    fn ring_evicts_only_whole_stale_chunks_from_the_front() {
        let mut ring = ChunkRing::new(64);
        for ms in 0..256 {
            ring.push(row_at(ms));
        }
        // Chunks cover [0,64), [64,128), [128,192), [192,256) ms.
        assert_eq!(ring.evict_before(64), 1);
        assert_eq!(ring.evicted_chunks(), 1);
        assert_eq!(ring.evicted_rows(), 64);
        // Cutoff inside a chunk's range keeps it (max_at >= cutoff).
        assert_eq!(ring.evict_before(100), 0);
        assert_eq!(ring.evict_before(200), 2);
        assert_eq!(ring.len(), 64);
        assert_eq!(ring.total_rows(), 256);
        ring.check_invariants();
        // Starts keep counting across evictions.
        assert_eq!(ring.sealed().next().unwrap().start(), 192);
    }

    #[test]
    fn empty_ring_is_well_formed() {
        let mut ring = ChunkRing::new(0);
        assert_eq!(ring.capacity(), abi::DEFAULT_CHUNK_CAPACITY);
        assert!(ring.is_empty());
        assert_eq!(ring.evict_before(i64::MAX), 0);
        ring.seal_open();
        ring.check_invariants();
    }
}
