//! Sealed-chunk columnar flow store with one-pass enrichment and
//! header-pruned window queries.
//!
//! Every analysis stage used to iterate the AoS `Vec<FlowSample>` and
//! independently re-resolve MACs and re-walk the blackhole LPM per sample.
//! [`ColumnarFlows`] stores the cleaned, aligned flow log as a sequence of
//! immutable **sealed chunks** ([`SealedChunk`]): fixed-capacity column
//! slabs — timestamps, addresses, ports, protocol, packet length — plus
//! per-sample ids a single parallel **enrichment pass** precomputes once.
//! Prepare runs that pass straight over the raw sample log, in place (one
//! slice for a batch corpus, a finalized stream's fixed-size blocks): it
//! skips the internal samples its first pass found, by their indices, and
//! stamps the clock-corrected timestamp as it seals, so no cleaned,
//! shifted or joined copy of the log exists. A kept sample costs one
//! source-MAC probe and one walk of the enricher's address table each for
//! its destination and its source. The per-sample ids are:
//!
//! * the ingress (handover) member ASN (from the member directory, a
//!   [`MacResolver`]), interned into a sorted ASN table;
//! * the origin AS of the source address (from the [`OriginTable`]
//!   routes), interned into the same table — the source walk's second
//!   answer;
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
//! cross-checks the spec against the [`abi`] constants. Prepared
//! analyzers (batch or stream-finalized) and the `rtbhd` server read
//! sealed chunks through this contract.
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
//! Samples are time-sorted, so a chunk's first and last timestamps
//! bracket its rows and the chunks' last timestamps never decrease. A
//! window bound first *prunes* to the one chunk that can contain the
//! boundary (a binary search over the chunks' last timestamps), then
//! binary-searches only inside it.
//! [`ColumnarFlows::window_ids`] then intersects the window with a sorted
//! sample-id list via [`gallop_partition_point`] — exponential search that
//! is O(log d) in the *distance* to the answer, not the list length.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rtbh_bgp::UpdateLog;
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_net::{Asn, FrozenLpm, Ipv4Addr, Prefix, Protocol, TimeDelta, Timestamp};

use crate::index::{Activity, MacResolver, OriginTable, SampleEnricher};
use crate::shard;

/// Sentinel for "no value" in every `u32` id column (interned ASNs,
/// prefix ids).
pub const NONE: u32 = u32::MAX;

/// The sealed-chunk ABI constants, mirrored field-by-field by
/// `docs/CHUNK_ABI.md` (a unit test asserts the two agree).
pub mod abi {
    /// Version of the in-memory chunk layout this module implements.
    pub const ABI_VERSION: u32 = 2;
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
    pub const VALUE_COLUMNS: [(&str, usize); 12] = [
        ("at", 8),
        ("src_ip", 4),
        ("dst_ip", 4),
        ("src_port", 2),
        ("dst_port", 2),
        ("protocol", 1),
        ("packet_len", 4),
        ("ingress", 4),
        ("origin", 4),
        ("dst_pid", 4),
        ("src_pid", 4),
        ("active_pid", 4),
    ];
    /// Names of the per-flag bitset columns, in ABI order.
    pub const FLAG_COLUMNS: [&str; 3] = ["fragment", "dropped", "active"];
    /// `(name, width in bytes)` of the chunk-header fields, in ABI order.
    pub const HEADER_FIELDS: [(&str, usize); 1] = [("start", 8)];
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
    at: Vec<i64>,
    src_ip: Vec<u32>,
    dst_ip: Vec<u32>,
    src_port: Vec<u16>,
    dst_port: Vec<u16>,
    protocol: Vec<u8>,
    packet_len: Vec<u32>,
    ingress: Vec<u32>,
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

    /// Smallest timestamp (ms) in the chunk: samples are time-sorted, so
    /// the timestamp of row 0. No build seals an empty chunk.
    #[inline]
    pub fn min_at_millis(&self) -> i64 {
        self.at[0]
    }

    /// Largest timestamp (ms) in the chunk: the timestamp of the last row.
    #[inline]
    pub fn max_at_millis(&self) -> i64 {
        self.at[self.at.len() - 1]
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
    pub(crate) fn dst_ip_raw(&self) -> &[u32] {
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

    /// Ids ([`ColumnarFlows::active_prefix_lookup`]) of the
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

    /// An empty chunk with room for exactly `rows` rows starting at global
    /// row `start`; the bitsets are sized for that count.
    fn with_rows(start: usize, rows: usize) -> Self {
        let words = rows.div_ceil(abi::FLAG_WORD_BITS);
        Self {
            start,
            at: Vec::with_capacity(rows),
            src_ip: Vec::with_capacity(rows),
            dst_ip: Vec::with_capacity(rows),
            src_port: Vec::with_capacity(rows),
            dst_port: Vec::with_capacity(rows),
            protocol: Vec::with_capacity(rows),
            packet_len: Vec::with_capacity(rows),
            ingress: Vec::with_capacity(rows),
            origin: Vec::with_capacity(rows),
            dst_pid: Vec::with_capacity(rows),
            src_pid: Vec::with_capacity(rows),
            active_pid: Vec::with_capacity(rows),
            fragment_bits: vec![0; words],
            dropped_bits: vec![0; words],
            active_bits: vec![0; words],
        }
    }

    /// Appends `s`, a sample pass 1 kept, with its timestamp moved by
    /// `offset`, its ids looked up in `enricher` — one source-MAC probe
    /// and one address walk each for destination and source — and its
    /// `active` bit read through `activity`. The bitsets are sized by
    /// [`SealedChunk::with_rows`], so no more rows than it was given may be
    /// appended.
    #[inline]
    fn push(
        &mut self,
        s: &FlowSample,
        offset: TimeDelta,
        enricher: &SampleEnricher,
        activity: &mut Activity<'_>,
    ) {
        let at = s.at + offset;
        let (dst_pid, _) = enricher.lookup(s.dst_ip);
        let (src_pid, origin) = enricher.lookup(s.src_ip);
        let active_pid = enricher.active_id(dst_pid);
        let (word, bit) = (self.at.len() >> 6, self.at.len() & 63);
        self.fragment_bits[word] |= u64::from(s.fragment) << bit;
        self.dropped_bits[word] |= u64::from(s.is_dropped()) << bit;
        self.active_bits[word] |= u64::from(activity.at(active_pid, at)) << bit;
        self.at.push(at.as_millis());
        self.src_ip.push(s.src_ip.to_u32());
        self.dst_ip.push(s.dst_ip.to_u32());
        self.src_port.push(s.src_port);
        self.dst_port.push(s.dst_port);
        self.protocol.push(s.protocol.number());
        self.packet_len.push(u32::from(s.packet_len));
        self.ingress.push(enricher.member(s.src_mac));
        self.origin.push(origin);
        self.dst_pid.push(dst_pid);
        self.src_pid.push(src_pid);
        self.active_pid.push(active_pid);
    }
}

/// The sealed-chunk columnar flow store. See the module docs and
/// `docs/CHUNK_ABI.md` for layout and determinism notes.
#[derive(Clone)]
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
    /// answered by the chunks' first and last timestamps alone).
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

/// Result of prepare's sealing pass: the columns plus the blackholed
/// prefixes' dense ids, as the sorted table [`SampleIndex`] is built from
/// (prepare compiles no longest-prefix table for them).
///
/// [`SampleIndex`]: crate::index::SampleIndex
pub(crate) struct Sealed {
    pub columns: ColumnarFlows,
    /// `(prefix, dense id)` of every blackholed prefix, sorted by prefix.
    pub blackholes: Vec<(Prefix, u32)>,
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
    /// resolved by the chunks' first and last timestamps alone).
    pub chunks_probed: u64,
    /// Share of per-query chunk work avoided by chunk pruning: of the
    /// `window_queries * chunks` chunk visits a naive scan would make,
    /// the fraction that never happened.
    pub pruned_ratio: f64,
}

/// Normalizes a requested chunk capacity: `0` selects
/// [`abi::DEFAULT_CHUNK_CAPACITY`]; anything else is clamped to
/// `[MIN_CHUNK_CAPACITY, MAX_CHUNK_CAPACITY]` and rounded up to a power
/// of two. Returns `(capacity, log2(capacity))`.
pub(crate) fn normalize_capacity(requested: usize) -> (usize, u32) {
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
        let sealed = Self::seal(
            &[flows.samples()],
            &[],
            TimeDelta::ZERO,
            enricher,
            workers,
            chunk_capacity,
        );
        EnrichedBuild {
            columns: sealed.columns,
            blackholes: FrozenLpm::from_entries(
                sealed
                    .blackholes
                    .into_iter()
                    .map(|(p, id)| (p, id as usize)),
            ),
            blackhole_prefixes: sealed.blackhole_prefixes,
        }
    }

    /// Pass 2 of prepare: seals the raw log minus the `removed` rows
    /// (sorted raw indices, as pass 1 found them) straight into enriched
    /// chunks, with every timestamp moved by `offset`. The log is read in
    /// place as its parts laid end to end — one slice for a batch corpus,
    /// the fixed-size blocks of a finalized stream — so no intermediate
    /// sample log is built and none is joined.
    ///
    /// Chunk `k` holds kept rows `[k·C, (k+1)·C)`, so chunk bounds depend
    /// on the capacity alone; each chunk finds its first raw row from
    /// `removed` and enriches the runs of kept rows between removed
    /// indices from there, each run split where a part ends, so no MAC is
    /// probed to tell a removed row and each kept row costs one source-MAC
    /// probe. Each chunk reads its `active` bits through fresh cursors, one
    /// per interval-holding prefix, which walk forward with the time-sorted
    /// rows (and re-seek should a timestamp ever step back).
    pub(crate) fn seal(
        log: &[&[FlowSample]],
        removed: &[u32],
        offset: TimeDelta,
        enricher: SampleEnricher,
        workers: usize,
        chunk_capacity: usize,
    ) -> Sealed {
        let (capacity, cap_shift) = normalize_capacity(chunk_capacity);
        let log = shard::Concat::new(log);
        let total = log.len();
        let n = total - removed.len();
        let seal = |start: usize, rows: usize| -> SealedChunk {
            let mut chunk = SealedChunk::with_rows(start, rows);
            let mut activity = enricher.activity();
            let mut raw = raw_row(removed, start);
            // `removed[gone]` is the first removed row at or after `raw`.
            let mut gone = raw - start;
            while chunk.len() < rows {
                let next = removed.get(gone).map_or(total, |&r| r as usize);
                let take = (next - raw).min(rows - chunk.len());
                for (_, run) in log.runs(raw, raw + take) {
                    for s in run {
                        chunk.push(s, offset, &enricher, &mut activity);
                    }
                }
                (raw, gone) = (next + 1, gone + 1);
            }
            chunk
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
        Sealed {
            columns: ColumnarFlows {
                chunks,
                len: n,
                cap_shift,
                asns: tables.asns,
                active_prefixes: tables.active_prefixes,
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
    pub(crate) fn loc(&self, i: usize) -> (&SealedChunk, usize) {
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

    /// The origin AS of sample `i`'s source address, if routed.
    #[inline]
    pub fn origin(&self, i: usize) -> Option<Asn> {
        let (c, r) = self.loc(i);
        self.asn_lookup(c.origin[r])
    }

    /// Resolves an interned ASN id (from an `ingress`/`origin` id column) against the intern table; [`NONE`] maps to `None`.
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

    /// Number of interned ASNs: `ingress`/`origin` ids lie below it.
    #[inline]
    pub(crate) fn asn_count(&self) -> usize {
        self.asns.len()
    }

    /// Number of interval-holding prefixes: `active_pid` ids lie below it.
    #[inline]
    pub(crate) fn active_prefix_count(&self) -> usize {
        self.active_prefixes.len()
    }

    /// Resolves an interval-holding prefix id (from an `active_pid`
    /// column) to its prefix.
    #[inline]
    pub fn active_prefix_lookup(&self, pid: u32) -> Prefix {
        self.active_prefixes[pid as usize]
    }

    /// Global index range `[lo, hi)` of samples with
    /// `start <= at < end`, answered by pruning on the chunks' first and
    /// last timestamps plus at most one in-chunk binary search per bound.
    pub fn time_range(&self, start: Timestamp, end: Timestamp) -> (usize, usize) {
        (self.bound(start.as_millis()), self.bound(end.as_millis()))
    }

    /// One window bound (`partition_point` of the virtual concatenated
    /// timestamp column), with observability counters. The first chunk
    /// whose last timestamp is `>= t` is the only one that can hold the
    /// boundary; a bound on or before its first timestamp is answered
    /// without searching it.
    fn bound(&self, t: i64) -> usize {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let c = self.chunks.partition_point(|c| c.max_at_millis() < t);
        let Some(chunk) = self.chunks.get(c) else {
            return self.len;
        };
        if t <= chunk.min_at_millis() {
            return chunk.start();
        }
        self.stats.probes.fetch_add(1, Ordering::Relaxed);
        chunk.start() + chunk.at_millis().partition_point(|&x| x < t)
    }

    /// Restricts a sorted sample-id slice (e.g. a
    /// [`SampleIndex`](crate::index::SampleIndex) `towards`/`from` list)
    /// to ids whose sample time falls in `[start, end)`.
    ///
    /// Equivalent to filtering `ids` by each sample's timestamp — because
    /// both `ids` and the timestamp column are sorted, the time window
    /// maps to one contiguous id range. The window bounds come from chunk
    /// pruning ([`ColumnarFlows::time_range`]); the id list is then joined
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

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_bgp::{BgpUpdate, UpdateKind};
    use rtbh_net::{Community, MacAddr};
    use rtbh_rng::{ChaChaRng, Rng, SliceRandom};

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
    fn sealing_stamps_the_offset_and_skips_internal_rows() {
        // The /24 is blackholed over [0, 100) ms.
        let updates = UpdateLog::from_updates(vec![update(0, "10.0.0.0/24", UpdateKind::Announce)]);
        let internal = MacAddr::from_id(9);
        let mut samples: Vec<FlowSample> = [-5, 0, 95]
            .into_iter()
            .map(|ms| FlowSample {
                at: Timestamp(ms),
                ..sample(0, "20.1.0.5", "10.0.0.9", false)
            })
            .collect();
        samples[1].dst_mac = internal;
        let enricher =
            SampleEnricher::new(test_resolver().map(), &[internal], &OriginTable::build(&[]))
                .with_blackholes(&updates, Timestamp(100));
        let (removed, _) = enricher.scan(&[&samples], None, 1);
        assert_eq!(removed, [1]);
        let cols =
            ColumnarFlows::seal(&[&samples], &removed, TimeDelta::millis(10), enricher, 1, 0)
                .columns;
        // The internal row is skipped; the others are stamped 10 ms later,
        // and activity reads the stamped time: -5 ms was before the
        // announcement, 5 ms is inside it, and 105 ms is past its end.
        let prefix: Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!([cols.at(0), cols.at(1)], [Timestamp(5), Timestamp(105)]);
        assert_eq!(cols.active_prefix(0), Some((prefix, true)));
        assert_eq!(cols.active_prefix(1), Some((prefix, false)));
    }

    #[test]
    fn a_log_in_parts_seals_like_one_slice() {
        // Internal rows on both sides of part edges, and parts shorter than
        // a chunk and longer than one.
        let internal = MacAddr::from_id(9);
        let samples: Vec<FlowSample> = (0..300)
            .map(|i| {
                let mut s = sample(i / 3, "20.1.0.5", "10.0.0.7", i % 5 == 0);
                if [0, 63, 64, 99, 100, 101, 250, 299].contains(&i) {
                    s.src_mac = internal;
                }
                s
            })
            .collect();
        let enricher = || {
            SampleEnricher::new(test_resolver().map(), &[internal], &OriginTable::build(&[]))
                .with_blackholes(&test_updates(), ts(100))
        };
        let (removed, _) = enricher().scan(&[&samples], None, 1);
        let offset = TimeDelta::millis(-7);
        let whole = ColumnarFlows::seal(&[&samples], &removed, offset, enricher(), 1, 64).columns;
        assert_eq!(whole.len(), 292);
        for cuts in [vec![100], vec![64, 101, 102], vec![1, 2, 250, 299]] {
            let mut parts: Vec<&[FlowSample]> = Vec::new();
            let mut start = 0;
            for &cut in cuts.iter().chain([&samples.len()]) {
                parts.push(&samples[start..cut]);
                start = cut;
            }
            for workers in [1, 3] {
                assert_eq!(
                    enricher().scan(&parts, None, workers).0,
                    removed,
                    "{cuts:?}"
                );
                let split = ColumnarFlows::seal(&parts, &removed, offset, enricher(), workers, 64);
                assert_eq!(split.columns, whole, "cuts {cuts:?}, {workers} workers");
            }
        }
    }

    #[test]
    fn active_bits_of_a_shuffled_log_match_a_binary_search_per_row() {
        // Every build seals a time-sorted log, so the activity cursors only
        // ever step forward there. Shuffled rows make them step back and
        // re-seek: the bits must still equal one binary search per row.
        let mut rng = ChaChaRng::seed_from_u64(0x5eed_ac71_u64);
        let prefixes = ["10.0.0.0/24", "10.0.0.7/32", "10.0.1.0/30", "10.0.2.9/32"];
        let mut updates = Vec::new();
        for p in prefixes {
            // Alternating announcements and withdrawals: a few intervals
            // per prefix, some left open until the corpus end.
            let mut at = rng.gen_range(0..20i64);
            for k in 0..rng.gen_range(1..=6usize) {
                let kind = if k % 2 == 0 {
                    UpdateKind::Announce
                } else {
                    UpdateKind::Withdraw
                };
                updates.push(update(at, p, kind));
                at += rng.gen_range(1..=30i64);
            }
        }
        let updates = UpdateLog::from_updates(updates);
        let dsts = ["10.0.0.7", "10.0.0.9", "10.0.1.2", "10.0.2.9", "11.0.0.1"];
        let mut samples: Vec<FlowSample> = (0..700)
            .map(|_| {
                let min = rng.gen_range(-5..=200i64);
                let mut s = sample(min, "20.1.0.5", dsts.choose(&mut rng).unwrap(), false);
                s.at += TimeDelta::millis(rng.gen_range(-1..=1i64));
                s
            })
            .collect();
        samples.shuffle(&mut rng);
        let enricher = || {
            SampleEnricher::new(test_resolver().map(), &[], &OriginTable::build(&[]))
                .with_blackholes(&updates, ts(190))
        };
        let oracle = enricher();
        for workers in [1, 3] {
            let cols =
                ColumnarFlows::seal(&[&samples], &[], TimeDelta::ZERO, enricher(), workers, 64)
                    .columns;
            assert_eq!(cols.chunks().len(), 11);
            let bits = cols
                .chunks()
                .iter()
                .flat_map(|c| (0..c.len()).map(|r| c.active(r)));
            let mut active = 0;
            for (s, bit) in samples.iter().zip(bits) {
                let aid = oracle.active_id(oracle.lookup(s.dst_ip).0);
                assert_eq!(bit, oracle.active_at(aid, s.at), "{s:?}");
                active += usize::from(bit);
            }
            assert!(0 < active && active < samples.len(), "{active} active rows");
        }
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
    fn window_bounds_match_naive_partition_point_on_seeded_columns() {
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
            let naive = |t: i64| at.partition_point(|&x| x < t);
            for t in probes {
                assert_eq!(
                    cols.time_range(Timestamp(t), Timestamp(t + 1)),
                    (naive(t), naive(t + 1)),
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
        for id_col in ["ingress", "origin", "dst_pid", "src_pid", "active_pid"] {
            assert_eq!(widths[id_col], size_of::<u32>(), "{id_col}");
        }
        assert_eq!(abi::VALUE_COLUMNS.len(), 12);
        assert_eq!(abi::HEADER_FIELDS, [("start", 8)]);
        assert_eq!(abi::ABI_VERSION, 2);
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
        // The spec documents nothing the code lacks either: its table rows
        // with a byte width are exactly the value columns and header fields.
        let sized_rows = spec
            .lines()
            .filter(|l| l.starts_with("| `"))
            .filter(|l| {
                l.split('|')
                    .nth(2)
                    .is_some_and(|w| w.trim().parse::<usize>().is_ok())
            })
            .count();
        assert_eq!(
            sized_rows,
            abi::VALUE_COLUMNS.len() + abi::HEADER_FIELDS.len()
        );
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
}
