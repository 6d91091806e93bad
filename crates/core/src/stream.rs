//! The event-driven streaming analyzer (ROADMAP item 1).
//!
//! [`StreamAnalyzer`] consumes one interleaved, timestamp-ordered feed of
//! BGP updates and flow samples and maintains *live* state while it runs:
//!
//! * the log of applied samples that survived cleaning, which the
//!   finalizer prepares and the anomaly backfill reads (its [`Retention`]
//!   is one index into that log), kept in fixed blocks of 2^16 samples;
//! * incremental per-prefix blackhole *runs* (the streaming counterpart of
//!   batch Δ-merged [`RtbhEvent`](crate::events::RtbhEvent)s) with EWMA
//!   anomaly backfill over the retained samples at run start;
//! * a live clock-offset estimate: every dropped sample votes into the
//!   batch estimator's [`OffsetVotes`] as it is applied, so the estimate
//!   sharpens with the watermark instead of waiting for the end of the feed;
//! * continuous emission of per-prefix RTBH verdicts (anomaly-backed /
//!   zombie / squatting) as a journaled event log ([`VerdictRecord`]).
//!
//! # Watermarks and the reorder buffer
//!
//! Real feeds are only *approximately* ordered. Every pushed event enters a
//! small reorder buffer keyed by `(timestamp, kind-rank, arrival)`; the
//! **watermark** trails the largest timestamp seen by the configured
//! [`StreamConfig::lateness`]. When the watermark advances, all buffered
//! events *strictly before* it are applied in key order — updates before
//! samples at the same millisecond, original arrival order within each
//! kind — so a feed that was produced by [`interleave`] (or any merge of
//! two individually-ordered logs) is applied in exactly the original
//! per-log order. Events arriving *behind* the watermark are counted in
//! [`StreamStatus::late_dropped`] and never applied. The buffer parks the
//! events in a slab and heap-orders only 24-byte keys, so a sift moves
//! keys, never events.
//!
//! # Per-event cost
//!
//! Ingest pays per event, not per prefix: a kept sample's one blackhole
//! lookup reads the live stride-8 table ([`FrozenLpm`], at most four slot
//! reads), which grows one prefix per first announcement with dense ids in
//! first-announcement order; and a watermark advance visits only the runs
//! whose merge-Δ expires under it, through an expiry queue keyed by `last
//! span end + merge_delta` that every span-closing withdrawal feeds. Each
//! kept sample is stored once, in the applied-sample log; beside it a
//! column of destination addresses lets the anomaly backfill filter a
//! window by prefix without reading the rows that do not match.
//!
//! The log grows in blocks of exactly [`abi::DEFAULT_CHUNK_CAPACITY`]
//! (2^16) samples, each block with its destinations beside them. A block
//! is allocated once at full size (about 2.6 MB) and never regrown, so
//! pushing a sample never copies the log, and no allocation of the log
//! comes near the 32 MiB above which glibc maps fresh pages for every
//! allocation and unmaps them at every free: a log grown by doubling to
//! 840,360 samples would end in a 40 MiB buffer re-mapped and re-faulted
//! on every replay. Rows are addressed by block index and offset.
//!
//! # Determinism and the batch contract
//!
//! Ingest cleans each sample with the batch prepare's own sample enricher
//! (one MAC-table probe per MAC), so it drops exactly the samples batch
//! cleaning drops. The stream accumulates the applied updates into an
//! ordinary [`UpdateLog`] and the cleaned samples into its blocks,
//! alongside its live state. The finalizer
//! ([`StreamAnalyzer::into_analyzer`]) drops the live state and moves the
//! update log and the blocks — plus the [`CleanReport`] counters
//! accumulated on ingest and the enricher — into the batch [`Analyzer`]'s
//! one preparation path, which reads the blocks in place as one log. For
//! any feed that delivers every event within the lateness bound, the
//! accumulated logs are byte-equal to the batch pipeline's cleaned inputs,
//! so **the finalized [`FullReport`] is
//! byte-identical to `Analyzer::full`'s** (pinned across chunk
//! capacities, feed batch sizes and worker counts by the `stream_diff`
//! differential suite).
//!
//! The *live* verdict journal intentionally follows watermark semantics
//! instead: it knows only the prefixes announced so far, reads unshifted
//! timestamps, and its anomaly backfill reads only the samples retention
//! still holds. The backfill runs the batch pre-event kernel, but over
//! every retained sample whose destination lies inside the run's prefix,
//! where batch reads only the samples whose longest blackholed prefix is
//! the event's: a /24 run also counts the traffic of a blackholed /32
//! nested in it. Those divergences are documented on [`VerdictRecord`];
//! the journal itself is deterministic (same feed, same config ⇒ same byte
//! sequence, pinned by the journal replay tests and the golden journal
//! snapshot).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_net::{Asn, FrozenLpm, Interval, Prefix, TimeDelta, Timestamp};
use rtbh_stats::OffsetVotes;

use crate::classify::UseCase;
use crate::clean::CleanReport;
use crate::columns::{abi, normalize_capacity};
use crate::corpus::Corpus;
use crate::index::{OriginTable, SampleEnricher};
use crate::pipeline::{Analyzer, AnalyzerConfig, FullReport};
use crate::preevent::{window_result, PreClass, PreEventScratch, WindowRow};
use crate::profile::{ExecutionMode, PipelineProfile, StageStats};

/// Samples per block of the applied-sample log. A constant: it must not
/// follow `chunk_capacity`, which may be 2^30.
const BLOCK_ROWS: usize = abi::DEFAULT_CHUNK_CAPACITY;

/// One block of the applied-sample log: up to [`BLOCK_ROWS`] samples in
/// applied order and, row for row, their destination addresses — the one
/// column the anomaly backfill filters on, so it reads a 40-byte row only
/// when the destination matches. Both vectors are allocated at full size
/// when the block opens and never grow past it.
struct SampleBlock {
    samples: Vec<FlowSample>,
    dsts: Vec<u32>,
}

impl SampleBlock {
    fn new() -> Self {
        Self {
            samples: Vec::with_capacity(BLOCK_ROWS),
            dsts: Vec::with_capacity(BLOCK_ROWS),
        }
    }
}

/// The rows `lo..hi` of the applied-sample log, one `(destinations,
/// samples)` pair of slices per block they touch, in applied order: row
/// `r` lives in block `r / BLOCK_ROWS` at offset `r % BLOCK_ROWS`, so a
/// range splits at block edges.
fn block_rows(
    blocks: &[SampleBlock],
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = (&[u32], &[FlowSample])> {
    let first = lo / BLOCK_ROWS;
    blocks[first..hi.div_ceil(BLOCK_ROWS).max(first)]
        .iter()
        .zip(first..)
        .map(move |(block, k)| {
            let base = k * BLOCK_ROWS;
            let (from, to) = (lo.max(base) - base, hi.min(base + BLOCK_ROWS) - base);
            (&block.dsts[from..to], &block.samples[from..to])
        })
}

/// One event of the interleaved control/data-plane feed.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A BGP update observed at the route server.
    Update(BgpUpdate),
    /// A sampled packet from the fabric.
    Sample(FlowSample),
}

impl StreamEvent {
    /// The event's timestamp.
    pub fn at(&self) -> Timestamp {
        match self {
            StreamEvent::Update(u) => u.at,
            StreamEvent::Sample(s) => s.at,
        }
    }

    /// Heap rank: updates apply before samples at the same millisecond, so
    /// a sample arriving in the instant a blackhole is announced sees the
    /// announcement — matching the batch interval rule `start <= at < end`.
    fn rank(&self) -> u8 {
        match self {
            StreamEvent::Update(_) => 0,
            StreamEvent::Sample(_) => 1,
        }
    }
}

/// Which applied samples the live anomaly backfill still reads.
///
/// Retention works in whole chunks of `chunk_capacity` kept samples,
/// counted from the first: only a complete chunk can leave, never the
/// partial one at the tail. It bounds what the live verdicts look back
/// at, not memory: the finalizer needs every kept sample, so the stream
/// keeps them all, and the finalized report never depends on retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Keep every chunk (the differential-test configuration).
    Unbounded,
    /// After each watermark advance, drop complete chunks from the front
    /// while the newest sample of the first one is older than
    /// `watermark - window`.
    Window(TimeDelta),
}

/// Configuration of the streaming analyzer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// The batch analyzer configuration the finalizer runs with; its
    /// `chunk_capacity` (normalized like every chunk build) is also the
    /// unit [`Retention`] drops samples in.
    pub analyzer: AnalyzerConfig,
    /// Bounded-lateness allowance: events may arrive up to this much
    /// behind the newest timestamp seen and still be applied in order.
    pub lateness: TimeDelta,
    /// How far back the live anomaly backfill reads.
    pub retention: Retention,
}

impl StreamConfig {
    /// The corpus-adapted defaults: batch config from
    /// [`AnalyzerConfig::for_corpus`], zero lateness (for feeds already in
    /// order), unbounded retention.
    pub fn for_corpus(corpus: &Corpus) -> Self {
        Self {
            analyzer: AnalyzerConfig::for_corpus(corpus),
            lateness: TimeDelta::ZERO,
            retention: Retention::Unbounded,
        }
    }
}

/// The reorder buffer: events wait in a slab of slots (freed slots are
/// reused), and a min-heap orders their keys `(at_ms, rank << 63 |
/// arrival, slot)` — the `(timestamp, kind-rank, arrival)` order, since
/// arrival numbers stay below 2^63 and are unique.
#[derive(Default)]
struct ReorderBuffer {
    heap: BinaryHeap<Reverse<(i64, u64, u32)>>,
    slab: Vec<Option<StreamEvent>>,
    free: Vec<u32>,
    arrival: u64,
}

impl ReorderBuffer {
    /// Buffers `event`, stamped `at_ms`, behind every event pushed before
    /// it with the same timestamp and kind.
    fn push(&mut self, at_ms: i64, event: StreamEvent) {
        let order = u64::from(event.rank()) << 63 | self.arrival;
        self.arrival += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 buffered events")
            }
        };
        self.heap.push(Reverse((at_ms, order, slot)));
    }

    /// Takes the first event in key order if it lies strictly before `wm`.
    fn pop_before(&mut self, wm: i64) -> Option<StreamEvent> {
        match self.heap.peek() {
            Some(&Reverse((at_ms, _, _))) if at_ms < wm => self.pop(),
            _ => None,
        }
    }

    /// Takes the first event in key order.
    fn pop(&mut self) -> Option<StreamEvent> {
        let Reverse((_, _, slot)) = self.heap.pop()?;
        self.free.push(slot);
        self.slab[slot as usize].take()
    }

    /// Events buffered.
    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Live per-prefix blackhole run state.
#[derive(Debug, Clone)]
struct PrefixState {
    prefix: Prefix,
    /// Peer of the prefix's first blackhole announcement (batch:
    /// `prefix_meta` records the first announcement per prefix).
    trigger_peer: Asn,
    /// Origin of the first blackhole announcement.
    origin: Asn,
    /// Start of the currently open interval, when announced.
    open_since: Option<Timestamp>,
    /// Closed intervals of the current (Δ-merged) run.
    spans: Vec<Interval>,
    /// Samples towards the prefix while an interval was open (plus merged
    /// gap traffic) — the live analogue of during-event packets.
    during_packets: u64,
    /// Samples towards the prefix since the last interval closed; merged
    /// into `during_packets` if the run reopens within Δ, discarded when
    /// the run closes instead.
    gap_packets: u64,
    /// Did the EWMA backfill flag an anomaly at the run's start?
    anomaly: bool,
}

/// One journaled live verdict: a per-prefix RTBH run that closed (its
/// merge-Δ expired under the watermark, or the stream finished).
///
/// Live verdicts follow watermark semantics and can diverge from the final
/// batch classification in documented ways:
///
/// * timestamps are unshifted (the finalizer's clock alignment has not
///   happened yet);
/// * the covering-prefix lookup knows only prefixes announced so far;
/// * the anomaly backfill reads only the samples [`Retention`] still
///   holds;
/// * the anomaly backfill counts every sample whose destination lies
///   inside the run's prefix, while batch counts only the samples whose
///   longest blackholed prefix is the event's — so traffic to a blackholed
///   /32 inside a /24 can back the /24's live `anomaly` flag but never its
///   batch `DataAnomaly` class.
///
/// The journal is nonetheless fully deterministic for a given feed and
/// config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRecord {
    /// Monotonic sequence number (0-based, gap-free).
    pub seq: u64,
    /// The blackholed prefix.
    pub prefix: Prefix,
    /// The live use-case verdict, by the batch precedence
    /// ([`ClassifyConfig::use_case`](crate::classify::ClassifyConfig::use_case)).
    pub use_case: UseCase,
    /// Peer of the prefix's first blackhole announcement.
    pub trigger_peer: Asn,
    /// Origin of the prefix's first blackhole announcement.
    pub origin: Asn,
    /// Start of the run's first interval.
    pub start: Timestamp,
    /// End of the run's last interval.
    pub end: Timestamp,
    /// `end - start`.
    pub duration: TimeDelta,
    /// Number of Δ-merged announcement intervals in the run.
    pub spans: usize,
    /// True when the run was still open at the end of the period.
    pub open_ended: bool,
    /// Samples towards the prefix while the run was active.
    pub during_packets: u64,
    /// Did the EWMA backfill flag a pre-run anomaly?
    pub anomaly: bool,
}

rtbh_json::impl_json! {
    struct VerdictRecord {
        seq, prefix, use_case, trigger_peer, origin, start, end, duration,
        spans, open_ended, during_packets, anomaly,
    }
}

/// Renders a verdict journal as one JSON object per line (JSONL).
pub fn render_journal(journal: &[VerdictRecord]) -> String {
    let mut out = String::new();
    for v in journal {
        out.push_str(&rtbh_json::to_string(v));
        out.push('\n');
    }
    out
}

/// Parses a JSONL verdict journal (blank lines ignored). A truncated tail
/// line is an error — recovery re-parses up to the last complete line and
/// resumes with [`StreamAnalyzer::resume_from`].
pub fn parse_journal(text: &str) -> Result<Vec<VerdictRecord>, rtbh_json::JsonError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(rtbh_json::from_str)
        .collect()
}

/// A live snapshot of the stream's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStatus {
    /// BGP updates applied.
    pub updates_ingested: u64,
    /// Flow samples that entered the clean stage (applied, pre-filter).
    pub samples_ingested: u64,
    /// Samples kept after internal-MAC cleaning.
    pub samples_kept: u64,
    /// Samples removed by internal-MAC cleaning.
    pub internal_removed: u64,
    /// Events dropped for arriving behind the watermark.
    pub late_dropped: u64,
    /// Events still buffered (not yet behind the watermark).
    pub pending: u64,
    /// The current watermark (ms), once any event has been seen.
    pub watermark_ms: Option<i64>,
    /// The live clock-offset estimate (ms), once a dropped sample has been
    /// seen; never for an offset grid the batch estimator rejects.
    pub live_offset_ms: Option<i64>,
    /// Distinct blackholed prefixes seen.
    pub blackhole_prefixes: u64,
    /// Prefix runs currently open or awaiting their merge-Δ.
    pub open_runs: u64,
    /// Verdicts journaled so far.
    pub verdicts: u64,
    /// Complete chunks of `chunk_capacity` kept samples that [`Retention`]
    /// still holds; after [`StreamAnalyzer::finish`] a partial tail chunk
    /// counts too.
    pub ring_chunks: u64,
    /// Kept samples [`Retention`] still holds (the anomaly backfill's
    /// reach).
    pub ring_rows: u64,
    /// Chunks dropped by [`Retention`] so far.
    pub ring_evicted_chunks: u64,
    /// Kept samples dropped by [`Retention`] so far; with `ring_rows` they
    /// add up to `samples_kept`.
    pub ring_evicted_rows: u64,
}

rtbh_json::impl_json! {
    serialize struct StreamStatus {
        updates_ingested, samples_ingested, samples_kept, internal_removed,
        late_dropped, pending, watermark_ms, live_offset_ms,
        blackhole_prefixes, open_runs, verdicts, ring_chunks, ring_rows,
        ring_evicted_chunks, ring_evicted_rows,
    }
}

/// The event-driven analyzer. See the [module docs](crate::stream) for the
/// watermark/reorder semantics and the batch-equality contract.
pub struct StreamAnalyzer {
    config: StreamConfig,
    /// The corpus's static context (period, members, registry, routes…)
    /// with **empty** logs — the accumulated logs replace them at
    /// finalization.
    template: Corpus,
    /// The batch enricher's MAC table and interned routes (compiled from
    /// the template alone, so its interned ids equal the batch ones); the
    /// finalizer adds the blackhole tables of the applied updates and the
    /// address table.
    enricher: SampleEnricher,
    pending: ReorderBuffer,
    max_seen_ms: Option<i64>,
    watermark_ms: Option<i64>,
    late_dropped: u64,
    /// Applied updates, in applied order (equals the source log for any
    /// feed within the lateness bound).
    updates: UpdateLog,
    /// The applied-sample log: the samples that survived cleaning, in
    /// applied order, so `at` never decreases along it. Every block but
    /// the last holds exactly [`BLOCK_ROWS`] samples, and no block is empty.
    blocks: Vec<SampleBlock>,
    internal_removed: usize,
    /// The normalized `chunk_capacity`: the unit retention drops in.
    chunk_capacity: usize,
    /// Row of the first sample the backfill still reads (block
    /// `retained_from / BLOCK_ROWS`, offset `retained_from % BLOCK_ROWS`);
    /// a multiple of `chunk_capacity`.
    retained_from: usize,
    /// Set by [`StreamAnalyzer::finish`], after which a partial tail
    /// chunk counts in [`StreamStatus::ring_chunks`].
    finished: bool,
    /// The live blackhole table: every prefix announced with BLACKHOLE so
    /// far, valued by its dense id (first-announcement order) into `state`.
    blackholes: FrozenLpm<usize>,
    state: Vec<PrefixState>,
    /// Merge-Δ expiry queue: `(span end + merge_delta, id)` for every span
    /// a withdrawal closed. An entry may be stale (the run reopened or
    /// closed since); popping re-checks the run.
    expiry: BinaryHeap<Reverse<(i64, usize)>>,
    /// The pre-event kernel's buffers, reused by every backfill.
    preevent: PreEventScratch,
    /// Live offset votes (observability only: the finalizer re-runs batch
    /// alignment); `None` for an invalid offset grid.
    offset: Option<OffsetVotes>,
    journal: Vec<VerdictRecord>,
    next_seq: u64,
    /// Verdicts with `seq <=` this are suppressed (journal recovery).
    resumed_after: Option<u64>,
    updates_ingested: u64,
    samples_ingested: u64,
}

impl StreamAnalyzer {
    /// Starts a stream over the corpus's static context (member directory,
    /// registry, routes, period). The corpus's own logs are **not** read —
    /// events arrive exclusively through [`StreamAnalyzer::push`].
    pub fn new(corpus: &Corpus, config: StreamConfig) -> Self {
        let template = Corpus {
            period: corpus.period,
            sampling_rate: corpus.sampling_rate,
            route_server_asn: corpus.route_server_asn,
            updates: UpdateLog::new(),
            flows: FlowLog::new(),
            members: corpus.members.clone(),
            registry: corpus.registry.clone(),
            internal_macs: corpus.internal_macs.clone(),
            routes: corpus.routes.clone(),
            caches: Default::default(),
        };
        let enricher = SampleEnricher::new(
            template.mac_to_member(),
            &template.internal_macs,
            &OriginTable::build(&template.routes),
        );
        let offset = OffsetVotes::new(
            config.analyzer.offset_half_range,
            config.analyzer.offset_step,
        );
        Self {
            template,
            enricher,
            pending: ReorderBuffer::default(),
            max_seen_ms: None,
            watermark_ms: None,
            late_dropped: 0,
            updates: UpdateLog::new(),
            blocks: Vec::new(),
            internal_removed: 0,
            chunk_capacity: normalize_capacity(config.analyzer.chunk_capacity).0,
            retained_from: 0,
            finished: false,
            blackholes: FrozenLpm::new(),
            state: Vec::new(),
            expiry: BinaryHeap::new(),
            preevent: PreEventScratch::new(),
            offset,
            journal: Vec::new(),
            next_seq: 0,
            resumed_after: None,
            updates_ingested: 0,
            samples_ingested: 0,
            config,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Feeds one event. Buffered until the watermark passes it; dropped
    /// (and counted) if it arrives behind the watermark.
    pub fn push(&mut self, event: StreamEvent) {
        let at_ms = event.at().as_millis();
        if let Some(wm) = self.watermark_ms {
            if at_ms < wm {
                self.late_dropped += 1;
                return;
            }
        }
        self.pending.push(at_ms, event);
        let new_max = match self.max_seen_ms {
            Some(m) => m.max(at_ms),
            None => at_ms,
        };
        self.max_seen_ms = Some(new_max);
        // Saturating: a lateness near `i64::MAX` pins the watermark at the
        // bottom of time instead of overflowing.
        let wm = new_max.saturating_sub(self.config.lateness.as_millis());
        let advanced = match self.watermark_ms {
            Some(old) => wm > old,
            None => true,
        };
        if advanced {
            self.watermark_ms = Some(wm);
            self.drain_watermark(wm);
        }
    }

    /// Feeds a batch of events in order.
    pub fn push_batch(&mut self, events: impl IntoIterator<Item = StreamEvent>) {
        for e in events {
            self.push(e);
        }
    }

    /// Applies every buffered event strictly before the watermark, then
    /// closes stale runs and enforces retention.
    fn drain_watermark(&mut self, wm: i64) {
        while let Some(event) = self.pending.pop_before(wm) {
            self.apply(event);
        }
        self.close_stale_runs(wm);
        if let Retention::Window(w) = self.config.retention {
            // `at` never decreases, so a chunk's newest sample is its last.
            let cutoff = wm.saturating_sub(w.as_millis());
            while self
                .sample(self.retained_from + self.chunk_capacity - 1)
                .is_some_and(|last| last.at.as_millis() < cutoff)
            {
                self.retained_from += self.chunk_capacity;
            }
        }
    }

    /// Kept samples applied so far.
    fn kept(&self) -> usize {
        self.blocks.last().map_or(0, |b| {
            (self.blocks.len() - 1) * BLOCK_ROWS + b.samples.len()
        })
    }

    /// The applied sample at `row`, if applied yet.
    fn sample(&self, row: usize) -> Option<&FlowSample> {
        let block = self.blocks.get(row / BLOCK_ROWS)?;
        block.samples.get(row % BLOCK_ROWS)
    }

    /// The number of applied samples before `t`: a `partition_point` over
    /// the whole log, whose `at` never decreases, by a binary search over
    /// the blocks' last samples and one inside the block holding the bound.
    fn rows_before(&self, t: Timestamp) -> usize {
        let k = self
            .blocks
            .partition_point(|b| b.samples[b.samples.len() - 1].at < t);
        match self.blocks.get(k) {
            Some(b) => k * BLOCK_ROWS + b.samples.partition_point(|s| s.at < t),
            None => self.kept(),
        }
    }

    /// The rows `lo..hi` of the retained samples with `ws <= at < we`.
    fn window_rows(&self, ws: Timestamp, we: Timestamp) -> (usize, usize) {
        let lo = self.rows_before(ws).max(self.retained_from);
        (lo, self.rows_before(we).max(lo))
    }

    /// Emits verdicts for runs whose merge-Δ has expired under the
    /// watermark — the continuous-emission half of the contract: a verdict
    /// becomes final as soon as no in-bound event could still extend its
    /// run.
    ///
    /// Only the expiry-queue entries due before `wm` are visited. A run
    /// turns stale only once the watermark passes the entry its last
    /// closing withdrawal pushed, so re-checking the popped runs closes
    /// exactly the runs a scan of every prefix would. They close in
    /// ascending id order, as that scan would, because `seq` numbers
    /// follow close order.
    fn close_stale_runs(&mut self, wm: i64) {
        let delta = self.config.analyzer.merge_delta;
        let wm_at = Timestamp::from_millis(wm);
        let mut expired = Vec::new();
        while let Some(&Reverse((expires, id))) = self.expiry.peek() {
            if expires >= wm {
                break;
            }
            self.expiry.pop();
            let st = &self.state[id];
            if st.open_since.is_none() && st.spans.last().is_some_and(|iv| iv.end + delta < wm_at) {
                expired.push(id);
            }
        }
        expired.sort_unstable();
        expired.dedup();
        for id in expired {
            self.close_run(id);
        }
    }

    fn apply(&mut self, event: StreamEvent) {
        match event {
            StreamEvent::Update(u) => self.apply_update(u),
            StreamEvent::Sample(s) => self.apply_sample(s),
        }
    }

    fn apply_update(&mut self, u: BgpUpdate) {
        self.updates_ingested += 1;
        match u.kind {
            UpdateKind::Announce if u.is_blackhole() => {
                let id = match self.blackholes.get(u.prefix) {
                    Some(&id) => id,
                    None => {
                        let id = self.state.len();
                        self.blackholes.insert(u.prefix, id);
                        self.state.push(PrefixState {
                            prefix: u.prefix,
                            trigger_peer: u.peer,
                            origin: u.origin,
                            open_since: None,
                            spans: Vec::new(),
                            during_packets: 0,
                            gap_packets: 0,
                            anomaly: false,
                        });
                        id
                    }
                };
                if self.state[id].open_since.is_none() {
                    // A closed run whose Δ already expired is a separate
                    // event — emit it before starting the next run.
                    let expired = self.state[id]
                        .spans
                        .last()
                        .map(|iv| iv.end + self.config.analyzer.merge_delta < u.at)
                        .unwrap_or(false);
                    if expired {
                        self.close_run(id);
                    }
                    if self.state[id].spans.is_empty() {
                        // Fresh run: EWMA backfill over the retained samples
                        // decides the anomaly verdict before any mutable
                        // re-borrow.
                        let anomaly = self.preevent_backfill(u.prefix, u.at);
                        let st = &mut self.state[id];
                        st.anomaly = anomaly;
                        st.during_packets = 0;
                        st.gap_packets = 0;
                    } else {
                        // Re-opening within Δ: the gap belongs to the run.
                        let st = &mut self.state[id];
                        st.during_packets += st.gap_packets;
                        st.gap_packets = 0;
                    }
                    self.state[id].open_since = Some(u.at);
                }
                // Re-announcement of an open prefix refreshes, never nests
                // (batch: `open.entry(prefix).or_insert(at)`).
            }
            UpdateKind::Withdraw => {
                // Wire withdrawals carry no communities: any withdrawal of
                // a known blackholed prefix closes its open interval.
                if let Some(&id) = self.blackholes.get(u.prefix) {
                    let st = &mut self.state[id];
                    if let Some(t0) = st.open_since.take() {
                        if u.at > t0 {
                            st.spans.push(Interval::new(t0, u.at));
                            let expires = u.at + self.config.analyzer.merge_delta;
                            self.expiry.push(Reverse((expires.as_millis(), id)));
                        }
                        // Degenerate (zero-length) intervals are dropped,
                        // exactly like the batch timeline.
                    }
                }
            }
            UpdateKind::Announce => {}
        }
        self.updates.push(u);
    }

    fn apply_sample(&mut self, s: FlowSample) {
        self.samples_ingested += 1;
        if self.enricher.ingress(&s).is_none() {
            self.internal_removed += 1;
            return;
        }
        let covering = self.blackholes.longest_value(s.dst_ip).copied();
        if let Some(id) = covering {
            let st = &mut self.state[id];
            match st.open_since {
                Some(t0) if t0 <= s.at => st.during_packets += 1,
                _ if !st.spans.is_empty() => st.gap_packets += 1,
                _ => {}
            }
        }
        if let Some(votes) = self.offset.as_mut().filter(|_| s.is_dropped()) {
            // The covering prefix's live interval: the open one, else the
            // last closed span of the current run.
            let open;
            let intervals = match covering.map(|id| &self.state[id]) {
                Some(&PrefixState {
                    open_since: Some(t0),
                    ..
                }) => {
                    open = [Interval::new(t0, Timestamp::from_millis(i64::MAX))];
                    &open[..]
                }
                Some(st) => &st.spans[st.spans.len().saturating_sub(1)..],
                None => &[],
            };
            votes.observe(s.at, intervals);
        }
        // The backfill's binary searches rely on `at` never going back.
        debug_assert!(
            self.blocks
                .last()
                .and_then(|b| b.samples.last())
                .map_or(true, |last| last.at <= s.at),
            "samples are applied in time order"
        );
        if self
            .blocks
            .last()
            .map_or(true, |b| b.samples.len() == BLOCK_ROWS)
        {
            self.blocks.push(SampleBlock::new());
        }
        let block = self.blocks.last_mut().expect("a block with room");
        block.dsts.push(s.dst_ip.to_u32());
        block.samples.push(s);
    }

    /// EWMA anomaly backfill at run start: feeds the retained samples
    /// towards `prefix` in `[start - pre_window, start)` to the pre-event
    /// kernel that [`crate::preevent::analyze_preevents`] runs and returns
    /// whether it classes the window `DataAnomaly`: sampled packets exist
    /// and an anomalous slot lies within the anomaly horizon. Unlike batch,
    /// which reads only the samples whose longest blackholed prefix is the
    /// event's, this counts every retained sample whose destination lies
    /// inside `prefix`, so a /24 run also counts the traffic of a
    /// blackholed /32 nested in it (see [`VerdictRecord`]).
    fn preevent_backfill(&mut self, prefix: Prefix, start: Timestamp) -> bool {
        let pcfg = &self.config.analyzer.preevent;
        // Samples are applied in key order, so `at` never decreases and
        // two binary searches bound the window's rows.
        let (lo, hi) = self.window_rows(start - pcfg.pre_window, start);
        let (mask, network) = (prefix.netmask().to_u32(), prefix.network().to_u32());
        // Each block's rows are filtered in one tight loop over its
        // destination column; only a match leaves it.
        let rows = block_rows(&self.blocks, lo, hi)
            .flat_map(|(dsts, samples)| {
                let inside = move |&(&dst, _): &(&u32, &FlowSample)| dst & mask == network;
                dsts.iter().zip(samples).filter(inside)
            })
            .map(|(_, s)| WindowRow {
                at: s.at.as_millis(),
                src_ip: s.src_ip.to_u32(),
                src_port: s.src_port,
                dst_port: s.dst_port,
                protocol: s.protocol.number(),
            });
        window_result(0, start, rows, pcfg, &mut self.preevent).class == PreClass::DataAnomaly
    }

    /// Closes run `id` and journals its verdict (no-op when the run has no
    /// closed spans).
    fn close_run(&mut self, id: usize) {
        let (spans, during, anomaly) = {
            let st = &mut self.state[id];
            st.gap_packets = 0;
            if st.spans.is_empty() {
                return;
            }
            (
                std::mem::take(&mut st.spans),
                std::mem::take(&mut st.during_packets),
                std::mem::replace(&mut st.anomaly, false),
            )
        };
        let (prefix, trigger_peer, origin) = {
            let st = &self.state[id];
            (st.prefix, st.trigger_peer, st.origin)
        };
        let start = spans[0].start;
        let end = spans.last().expect("non-empty").end;
        let duration = end - start;
        let open_ended = end >= self.template.period.end;
        let use_case = self
            .config
            .analyzer
            .classify
            .use_case(anomaly, prefix, duration, during, open_ended);
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.resumed_after.map_or(true, |last| seq > last) {
            self.journal.push(VerdictRecord {
                seq,
                prefix,
                use_case,
                trigger_peer,
                origin,
                start,
                end,
                duration,
                spans: spans.len(),
                open_ended,
                during_packets: during,
                anomaly,
            });
        }
    }

    /// Journal recovery: suppresses re-emission of verdicts with
    /// `seq <= last_seq` (they were already durably journaled before a
    /// crash/truncation). Replaying the same feed then yields exactly the
    /// missing suffix — no duplicates, no gaps.
    pub fn resume_from(&mut self, last_seq: u64) {
        self.resumed_after = Some(last_seq);
    }

    /// Ends the stream: applies every buffered event regardless of the
    /// watermark, closes still-open intervals at the period end (batch
    /// rule: open prefixes close at `corpus_end`) and journals every
    /// remaining run.
    pub fn finish(&mut self) {
        while let Some(event) = self.pending.pop() {
            self.apply(event);
        }
        let end = self.template.period.end;
        for id in 0..self.state.len() {
            if let Some(t0) = self.state[id].open_since.take() {
                if end > t0 {
                    self.state[id].spans.push(Interval::new(t0, end));
                }
            }
        }
        for id in 0..self.state.len() {
            self.close_run(id);
        }
        self.finished = true;
    }

    /// Finalizes into a batch [`Analyzer`] over the accumulated logs: the
    /// stream's cleaned flows and applied updates replace the template's
    /// empty logs, the ingest-time [`CleanReport`] carries the clean
    /// counters, and the stream's enricher is reused, so the analyzer runs
    /// batch prepare's exact two passes (pass 1 finds nothing to remove
    /// and counts the offset votes; pass 2 seals with the offset stamped)
    /// and then the stages.
    ///
    /// Call [`StreamAnalyzer::finish`] first; this consumes the stream.
    /// The live blackhole table, the prefix runs, the journal and the
    /// backfill's destination columns are freed before the batch kernels
    /// run; the sample blocks are moved, never joined or copied, and
    /// prepare reads them in place.
    pub fn into_analyzer(self) -> Analyzer {
        // Consumed in this scope, so every field not moved out is dropped
        // here rather than after preparation returns.
        let (corpus, blocks, config, clean_report, enricher) = {
            let stream = self;
            let clean_report = CleanReport {
                total: usize::try_from(stream.samples_ingested)
                    .expect("an in-memory stream's sample count fits usize"),
                internal_removed: stream.internal_removed,
            };
            let corpus = Corpus {
                updates: stream.updates,
                caches: Default::default(),
                ..stream.template
            };
            let blocks = stream.blocks.into_iter().map(|b| b.samples).collect();
            (
                corpus,
                blocks,
                stream.config.analyzer,
                clean_report,
                stream.enricher,
            )
        };
        Analyzer::from_cleaned(corpus, blocks, config, clean_report, enricher)
    }

    /// The verdict journal emitted so far (post-[`resume_from`] floor).
    ///
    /// [`resume_from`]: StreamAnalyzer::resume_from
    pub fn journal(&self) -> &[VerdictRecord] {
        &self.journal
    }

    /// The current watermark, once any event has been seen.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark_ms.map(Timestamp::from_millis)
    }

    /// A snapshot of every live counter.
    pub fn status(&self) -> StreamStatus {
        let kept = self.kept();
        let held = kept - self.retained_from;
        let chunks = if self.finished {
            held.div_ceil(self.chunk_capacity)
        } else {
            held / self.chunk_capacity
        };
        StreamStatus {
            updates_ingested: self.updates_ingested,
            samples_ingested: self.samples_ingested,
            samples_kept: kept as u64,
            internal_removed: self.internal_removed as u64,
            late_dropped: self.late_dropped,
            pending: self.pending.len() as u64,
            watermark_ms: self.watermark_ms,
            live_offset_ms: self
                .offset
                .as_ref()
                .and_then(OffsetVotes::scan)
                .map(|scan| scan.best.offset.as_millis()),
            blackhole_prefixes: self.state.len() as u64,
            open_runs: self
                .state
                .iter()
                .filter(|st| st.open_since.is_some() || !st.spans.is_empty())
                .count() as u64,
            verdicts: self.next_seq,
            ring_chunks: chunks as u64,
            ring_rows: held as u64,
            ring_evicted_chunks: (self.retained_from / self.chunk_capacity) as u64,
            ring_evicted_rows: self.retained_from as u64,
        }
    }
}

/// Merges a corpus's two logs into one timestamp-ordered event feed:
/// stable two-pointer merge by millisecond, updates before samples on
/// ties, original order within each log.
pub fn interleave(corpus: &Corpus) -> Vec<StreamEvent> {
    let updates = corpus.updates.updates();
    let samples = corpus.flows.samples();
    let mut out = Vec::with_capacity(updates.len() + samples.len());
    let (mut i, mut j) = (0, 0);
    while i < updates.len() && j < samples.len() {
        if updates[i].at.as_millis() <= samples[j].at.as_millis() {
            out.push(StreamEvent::Update(updates[i].clone()));
            i += 1;
        } else {
            out.push(StreamEvent::Sample(samples[j]));
            j += 1;
        }
    }
    out.extend(updates[i..].iter().cloned().map(StreamEvent::Update));
    out.extend(samples[j..].iter().cloned().map(StreamEvent::Sample));
    out
}

/// The result of replaying a corpus through the stream path.
pub struct StreamRun {
    /// The finalized batch analyzer over the accumulated logs.
    pub analyzer: Analyzer,
    /// The finalized report — byte-identical to `Analyzer::full`'s for any
    /// in-bound feed.
    pub report: FullReport,
    /// The run's profile: `mode = Streaming`, with synthetic
    /// `ingest`/`finish` stages prepended to the preparation stats.
    pub profile: PipelineProfile,
    /// The final counter snapshot.
    pub status: StreamStatus,
    /// The live verdict journal.
    pub journal: Vec<VerdictRecord>,
    /// Events fed (updates + samples).
    pub events_fed: usize,
}

/// Replays a sealed corpus through the streaming path: interleaves the
/// logs, feeds them in batches, finishes, finalizes, and renders the same
/// [`FullReport`] the batch pipeline produces.
#[derive(Debug, Clone, Copy)]
pub struct StreamDriver {
    batch_size: usize,
}

impl StreamDriver {
    /// A driver feeding `batch_size` events per [`StreamAnalyzer::push_batch`]
    /// call (clamped to at least 1).
    pub fn new(batch_size: usize) -> Self {
        Self {
            batch_size: batch_size.max(1),
        }
    }

    /// The feed batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Replays `corpus` through a fresh [`StreamAnalyzer`].
    pub fn replay(&self, corpus: &Corpus, config: StreamConfig) -> StreamRun {
        let events = interleave(corpus);
        let events_fed = events.len();
        let mut stream = StreamAnalyzer::new(corpus, config);
        let t0 = std::time::Instant::now();
        let mut it = events.into_iter();
        loop {
            let batch: Vec<StreamEvent> = it.by_ref().take(self.batch_size).collect();
            if batch.is_empty() {
                break;
            }
            stream.push_batch(batch);
        }
        let ingest_ns = t0.elapsed().as_nanos() as u64;
        let t1 = std::time::Instant::now();
        stream.finish();
        let finish_ns = t1.elapsed().as_nanos() as u64;
        let status = stream.status();
        let journal = stream.journal().to_vec();
        let analyzer = stream.into_analyzer();
        let (report, mut profile) = analyzer.full_with_profile();
        profile.mode = ExecutionMode::Streaming;
        let stage = |name: &str, wall_ns: u64| StageStats {
            stage: name.to_string(),
            wall_ns,
            workers: 1,
            updates_scanned: status.updates_ingested,
            samples_scanned: status.samples_ingested,
            events_touched: status.verdicts,
        };
        profile.prepare.insert(0, stage("finish", finish_ns));
        profile.prepare.insert(0, stage("ingest", ingest_ns));
        StreamRun {
            analyzer,
            report,
            profile,
            status,
            journal,
            events_fed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::MemberInfo;
    use rtbh_net::{Community, Ipv4Addr, MacAddr, Protocol};
    use rtbh_peeringdb::Registry;

    const MINUTE: i64 = 60_000;

    fn member(asn: u32, mac_id: u32) -> MemberInfo {
        MemberInfo {
            asn: Asn(asn),
            macs: vec![MacAddr::from_id(mac_id)],
        }
    }

    fn corpus(days: i64) -> Corpus {
        Corpus {
            period: Interval::new(Timestamp::EPOCH, Timestamp::EPOCH + TimeDelta::days(days)),
            sampling_rate: 10_000,
            route_server_asn: Asn(6695),
            updates: UpdateLog::new(),
            flows: FlowLog::new(),
            members: vec![member(64500, 1), member(64501, 2)],
            registry: Registry::new(),
            internal_macs: vec![MacAddr::from_id(0xF00)],
            routes: vec![("198.51.100.0/24".parse().unwrap(), Asn(64501))],
            caches: Default::default(),
        }
    }

    fn announce(min: i64, prefix: &str, peer: u32) -> BgpUpdate {
        BgpUpdate {
            at: Timestamp::from_millis(min * MINUTE),
            peer: Asn(peer),
            prefix: prefix.parse().unwrap(),
            origin: Asn(peer),
            kind: UpdateKind::Announce,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(203, 0, 113, 66),
        }
    }

    fn withdraw(min: i64, prefix: &str, peer: u32) -> BgpUpdate {
        BgpUpdate {
            kind: UpdateKind::Withdraw,
            communities: Vec::new(),
            ..announce(min, prefix, peer)
        }
    }

    fn sample(min: i64, dst: &str, dropped: bool) -> FlowSample {
        FlowSample {
            at: Timestamp::from_millis(min * MINUTE),
            src_mac: MacAddr::from_id(1),
            dst_mac: if dropped {
                MacAddr::BLACKHOLE
            } else {
                MacAddr::from_id(2)
            },
            src_ip: "198.51.100.9".parse().unwrap(),
            dst_ip: dst.parse().unwrap(),
            protocol: Protocol::Udp,
            src_port: 53,
            dst_port: 4444,
            packet_len: 512,
            fragment: false,
        }
    }

    /// A small but non-trivial corpus: one short blackhole run with
    /// traffic, one long zombie-like host run, plus background samples.
    fn build_corpus() -> Corpus {
        let mut c = corpus(10);
        let mut updates = Vec::new();
        let mut samples = Vec::new();
        updates.push(announce(60, "10.0.0.7/32", 64500));
        updates.push(withdraw(120, "10.0.0.7/32", 64500));
        updates.push(announce(200, "10.1.0.0/24", 64501));
        for i in 0..300 {
            samples.push(sample(i * 3, "10.0.0.7", i % 4 == 0));
            samples.push(sample(i * 3 + 1, "192.0.2.9", false));
        }
        // An internal flow that the clean stage must remove.
        let mut internal = sample(50, "10.0.0.7", false);
        internal.src_mac = MacAddr::from_id(0xF00);
        samples.push(internal);
        c.updates = UpdateLog::from_updates(updates);
        c.flows = FlowLog::from_samples(samples);
        c
    }

    fn report_bytes(report: &FullReport) -> Vec<u8> {
        rtbh_json::to_vec_pretty(report)
    }

    #[test]
    fn replay_reproduces_batch_report_bytes() {
        let c = build_corpus();
        let config = StreamConfig::for_corpus(&c);
        let batch = Analyzer::new(c.clone(), config.analyzer);
        let expected = report_bytes(&batch.full());
        for batch_size in [1, 7, 4096] {
            let run = StreamDriver::new(batch_size).replay(&c, config);
            assert_eq!(
                report_bytes(&run.report),
                expected,
                "batch size {batch_size}"
            );
            assert_eq!(run.events_fed, c.updates.len() + c.flows.len());
            assert_eq!(run.profile.mode, ExecutionMode::Streaming);
            assert_eq!(run.profile.prepare[0].stage, "ingest");
            assert_eq!(run.profile.prepare[1].stage, "finish");
        }
    }

    #[test]
    fn late_events_behind_the_watermark_are_counted_not_applied() {
        let c = corpus(1);
        let mut stream = StreamAnalyzer::new(&c, StreamConfig::for_corpus(&c));
        stream.push(StreamEvent::Sample(sample(100, "192.0.2.9", false)));
        stream.push(StreamEvent::Sample(sample(200, "192.0.2.9", false)));
        // Zero lateness: the watermark sits at 200 min; minute 50 is late.
        stream.push(StreamEvent::Sample(sample(50, "192.0.2.9", false)));
        let status = stream.status();
        assert_eq!(status.late_dropped, 1);
        stream.finish();
        assert_eq!(stream.status().samples_ingested, 2);
        assert_eq!(stream.kept(), 2);
    }

    #[test]
    fn extreme_lateness_and_retention_saturate_instead_of_overflowing() {
        let c = corpus(1);
        let config = StreamConfig {
            lateness: TimeDelta::millis(i64::MAX),
            retention: Retention::Window(TimeDelta::millis(i64::MAX)),
            ..StreamConfig::for_corpus(&c)
        };
        let mut stream = StreamAnalyzer::new(&c, config);
        let mut early = sample(0, "192.0.2.9", false);
        early.at = Timestamp::from_millis(-5);
        stream.push(StreamEvent::Sample(early));
        assert_eq!(stream.watermark(), Some(Timestamp::from_millis(i64::MIN)));
        stream.push(StreamEvent::Sample(sample(20, "192.0.2.9", false)));
        stream.finish();
        let status = stream.status();
        assert_eq!(status.late_dropped, 0);
        assert_eq!(status.samples_kept, 2);
        assert_eq!(status.ring_evicted_chunks, 0);
    }

    #[test]
    fn bounded_lateness_reorders_within_the_allowance() {
        let c = corpus(1);
        let config = StreamConfig {
            lateness: TimeDelta::minutes(30),
            ..StreamConfig::for_corpus(&c)
        };
        let mut stream = StreamAnalyzer::new(&c, config);
        // Out of order, but within 30 minutes of the newest event.
        stream.push(StreamEvent::Sample(sample(20, "192.0.2.9", false)));
        stream.push(StreamEvent::Sample(sample(10, "192.0.2.9", false)));
        stream.push(StreamEvent::Sample(sample(25, "192.0.2.9", false)));
        stream.finish();
        let status = stream.status();
        assert_eq!(status.late_dropped, 0);
        let ats: Vec<i64> = block_rows(&stream.blocks, 0, stream.kept())
            .flat_map(|(_, samples)| samples)
            .map(|s| s.at.as_millis() / MINUTE)
            .collect();
        assert_eq!(ats, vec![10, 20, 25], "applied in timestamp order");
    }

    #[test]
    fn verdict_emitted_continuously_once_merge_delta_expires() {
        let c = corpus(10);
        let mut stream = StreamAnalyzer::new(&c, StreamConfig::for_corpus(&c));
        stream.push(StreamEvent::Update(announce(60, "10.0.0.7/32", 64500)));
        stream.push(StreamEvent::Update(withdraw(90, "10.0.0.7/32", 64500)));
        assert!(stream.journal().is_empty(), "run may still reopen within Δ");
        // Advancing the watermark past end + Δ emits the verdict without
        // waiting for finish().
        stream.push(StreamEvent::Sample(sample(200, "192.0.2.9", false)));
        assert_eq!(stream.journal().len(), 1);
        let v = &stream.journal()[0];
        assert_eq!(v.seq, 0);
        assert_eq!(v.prefix, "10.0.0.7/32".parse().unwrap());
        assert_eq!(v.duration, TimeDelta::minutes(30));
        assert!(!v.open_ended);
    }

    #[test]
    fn runs_expiring_in_one_advance_close_in_id_order() {
        let c = corpus(10);
        let mut stream = StreamAnalyzer::new(&c, StreamConfig::for_corpus(&c));
        // 10.0.0.7/32 gets id 0, 10.0.0.8/32 id 1; id 1 is withdrawn first,
        // so its merge-Δ expires first.
        stream.push(StreamEvent::Update(announce(60, "10.0.0.7/32", 64500)));
        stream.push(StreamEvent::Update(announce(61, "10.0.0.8/32", 64500)));
        stream.push(StreamEvent::Update(withdraw(70, "10.0.0.8/32", 64500)));
        stream.push(StreamEvent::Update(withdraw(75, "10.0.0.7/32", 64500)));
        assert!(stream.journal().is_empty());
        // One advance past both expiries closes both runs.
        stream.push(StreamEvent::Sample(sample(200, "192.0.2.9", false)));
        let closed: Vec<(u64, Prefix)> =
            stream.journal().iter().map(|v| (v.seq, v.prefix)).collect();
        assert_eq!(
            closed,
            [
                (0, "10.0.0.7/32".parse().unwrap()),
                (1, "10.0.0.8/32".parse().unwrap())
            ]
        );
    }

    #[test]
    fn reannouncement_within_delta_merges_into_one_run() {
        let c = corpus(10);
        let mut stream = StreamAnalyzer::new(&c, StreamConfig::for_corpus(&c));
        stream.push(StreamEvent::Update(announce(60, "10.0.0.7/32", 64500)));
        stream.push(StreamEvent::Update(withdraw(70, "10.0.0.7/32", 64500)));
        // Reopen 5 minutes later — inside the 10-minute merge Δ.
        stream.push(StreamEvent::Update(announce(75, "10.0.0.7/32", 64500)));
        stream.push(StreamEvent::Update(withdraw(80, "10.0.0.7/32", 64500)));
        stream.push(StreamEvent::Sample(sample(500, "192.0.2.9", false)));
        assert_eq!(stream.journal().len(), 1);
        let v = &stream.journal()[0];
        assert_eq!(v.spans, 2);
        assert_eq!(v.duration, TimeDelta::minutes(20));
    }

    #[test]
    fn open_runs_close_at_period_end_as_open_ended() {
        let c = corpus(10);
        let mut stream = StreamAnalyzer::new(&c, StreamConfig::for_corpus(&c));
        stream.push(StreamEvent::Update(announce(60, "10.0.0.7/32", 64500)));
        stream.finish();
        assert_eq!(stream.journal().len(), 1);
        let v = &stream.journal()[0];
        assert!(v.open_ended);
        assert_eq!(v.end, c.period.end);
    }

    #[test]
    fn resume_from_suppresses_already_emitted_verdicts() {
        let c = build_corpus();
        let config = StreamConfig::for_corpus(&c);
        let feed = interleave(&c);
        let mut full = StreamAnalyzer::new(&c, config);
        full.push_batch(feed.iter().cloned());
        full.finish();
        let reference = full.journal().to_vec();
        assert!(reference.len() >= 2, "corpus must emit several verdicts");

        let cut = reference.len() / 2;
        let mut resumed = StreamAnalyzer::new(&c, config);
        resumed.resume_from(reference[cut - 1].seq);
        resumed.push_batch(feed.iter().cloned());
        resumed.finish();
        assert_eq!(resumed.journal(), &reference[cut..]);
    }

    #[test]
    fn resume_from_the_largest_seq_emits_nothing() {
        // A journal may name any u64 seq; resuming after the largest one
        // must suppress every verdict, not wrap around and re-emit them.
        let c = build_corpus();
        let mut stream = StreamAnalyzer::new(&c, StreamConfig::for_corpus(&c));
        stream.resume_from(u64::MAX);
        stream.push_batch(interleave(&c));
        stream.finish();
        assert!(stream.status().verdicts >= 2, "runs still close");
        assert!(stream.journal().is_empty());
    }

    #[test]
    fn journal_renders_and_parses_round_trip() {
        let c = build_corpus();
        let run = StreamDriver::new(64).replay(&c, StreamConfig::for_corpus(&c));
        assert!(!run.journal.is_empty());
        let text = render_journal(&run.journal);
        let parsed = parse_journal(&text).expect("parse journal");
        assert_eq!(parsed, run.journal);
        // Truncated tail line is an error, not silent data loss.
        let truncated = &text[..text.len() - 3];
        assert!(parse_journal(truncated).is_err());
    }

    #[test]
    fn live_offset_breaks_ties_like_the_batch_estimate() {
        // A dropped sample 5 s into an open blackhole is explained at every
        // grid offset; the tie goes to the smallest |offset|.
        let mut c = corpus(1);
        let mut dropped = sample(60, "10.0.0.7", true);
        dropped.at += TimeDelta::seconds(5);
        c.updates = UpdateLog::from_updates(vec![announce(60, "10.0.0.7/32", 64500)]);
        c.flows = FlowLog::from_samples(vec![dropped]);
        let config = StreamConfig::for_corpus(&c);
        let batch = crate::align::estimate_offset(
            &c.updates,
            &c.flows,
            c.period.end,
            config.analyzer.offset_half_range,
            config.analyzer.offset_step,
        )
        .expect("one dropped sample");
        assert_eq!(batch.estimated_offset(), TimeDelta::ZERO);
        let run = StreamDriver::new(1).replay(&c, config);
        assert_eq!(run.status.live_offset_ms, Some(0));
    }

    #[test]
    fn an_invalid_offset_grid_gives_no_alignment_and_no_live_estimate() {
        let c = build_corpus();
        let mut config = StreamConfig::for_corpus(&c);
        config.analyzer.offset_step = TimeDelta::ZERO;
        let run = StreamDriver::new(64).replay(&c, config);
        assert_eq!(run.report.alignment, None);
        assert_eq!(run.status.live_offset_ms, None);
    }

    #[test]
    fn retention_window_bounds_the_ring() {
        let c = build_corpus();
        let mut config = StreamConfig::for_corpus(&c);
        config.analyzer.chunk_capacity = 64;
        config.retention = Retention::Window(TimeDelta::minutes(60));
        let run = StreamDriver::new(1).replay(&c, config);
        assert!(
            run.status.ring_evicted_chunks > 0,
            "a 60-minute window over a 15-hour feed must evict"
        );
        assert_eq!(
            run.status.ring_rows + run.status.ring_evicted_rows,
            run.status.samples_kept
        );
        // Eviction of live state never changes the finalized report.
        let batch = Analyzer::new(c.clone(), config.analyzer);
        assert_eq!(report_bytes(&run.report), report_bytes(&batch.full()));
    }

    /// A sample towards an unblackholed host at `ms` milliseconds.
    fn sample_at_ms(ms: i64) -> FlowSample {
        FlowSample {
            at: Timestamp::from_millis(ms),
            ..sample(0, "192.0.2.9", false)
        }
    }

    /// `(ring_chunks, ring_rows, ring_evicted_chunks, ring_evicted_rows)`,
    /// after checking that retained and dropped rows add up to the kept
    /// samples.
    fn ring_counters(stream: &StreamAnalyzer) -> (u64, u64, u64, u64) {
        let s = stream.status();
        assert_eq!(s.ring_rows + s.ring_evicted_rows, s.samples_kept);
        (
            s.ring_chunks,
            s.ring_rows,
            s.ring_evicted_chunks,
            s.ring_evicted_rows,
        )
    }

    #[test]
    fn ring_chunks_count_whole_chunks_until_finish_counts_the_tail() {
        let c = corpus(1);
        let mut config = StreamConfig::for_corpus(&c);
        config.analyzer.chunk_capacity = 64;
        let mut stream = StreamAnalyzer::new(&c, config);
        // Zero lateness: each push applies every sample before it.
        for ms in 0..200 {
            stream.push(StreamEvent::Sample(sample_at_ms(ms)));
        }
        assert_eq!(ring_counters(&stream), (3, 199, 0, 0));
        stream.finish();
        assert_eq!(ring_counters(&stream), (4, 200, 0, 0));

        // A tail that ends on a chunk boundary adds no partial chunk.
        let mut stream = StreamAnalyzer::new(&c, config);
        stream.push_batch((0..128).map(|ms| StreamEvent::Sample(sample_at_ms(ms))));
        assert_eq!(ring_counters(&stream), (1, 127, 0, 0));
        stream.finish();
        assert_eq!(ring_counters(&stream), (2, 128, 0, 0));
    }

    #[test]
    fn retention_drops_only_whole_chunks_from_the_front_never_the_tail() {
        let c = corpus(1);
        let mut config = StreamConfig::for_corpus(&c);
        config.analyzer.chunk_capacity = 64;
        config.retention = Retention::Window(TimeDelta::millis(100));
        let mut stream = StreamAnalyzer::new(&c, config);
        let push = |stream: &mut StreamAnalyzer, ms: std::ops::Range<i64>| {
            stream.push_batch(ms.map(|ms| StreamEvent::Sample(sample_at_ms(ms))));
        };
        // Rows 0..163 applied: chunks [0, 64) and [64, 128) are complete;
        // the cutoff 63 is not past chunk 0's newest row.
        push(&mut stream, 0..164);
        assert_eq!(ring_counters(&stream), (2, 163, 0, 0));
        // Cutoff 64: chunk 0 goes, whole.
        push(&mut stream, 164..165);
        assert_eq!(ring_counters(&stream), (1, 100, 1, 64));
        // A cutoff inside chunk 1's range keeps it.
        push(&mut stream, 165..228);
        assert_eq!(ring_counters(&stream), (2, 163, 1, 64));
        // Cutoff 128: chunk 1 goes.
        push(&mut stream, 228..229);
        assert_eq!(ring_counters(&stream), (1, 100, 2, 128));
        // A jump far ahead drops every complete chunk but keeps the tail,
        // however old its rows.
        push(&mut stream, 10_000..10_001);
        assert_eq!(ring_counters(&stream), (0, 37, 3, 192));
        stream.finish();
        assert_eq!(ring_counters(&stream), (1, 38, 3, 192));
    }

    #[test]
    fn an_empty_stream_reports_all_zero_counters() {
        let c = corpus(1);
        let mut stream = StreamAnalyzer::new(&c, StreamConfig::for_corpus(&c));
        let zero = StreamStatus {
            updates_ingested: 0,
            samples_ingested: 0,
            samples_kept: 0,
            internal_removed: 0,
            late_dropped: 0,
            pending: 0,
            watermark_ms: None,
            live_offset_ms: None,
            blackhole_prefixes: 0,
            open_runs: 0,
            verdicts: 0,
            ring_chunks: 0,
            ring_rows: 0,
            ring_evicted_chunks: 0,
            ring_evicted_rows: 0,
        };
        assert_eq!(stream.status(), zero);
        stream.finish();
        assert_eq!(stream.status(), zero);
    }

    #[test]
    fn retention_decides_whether_a_burst_backs_the_live_anomaly_flag() {
        // Quiet traffic to a host, then a burst 3 minutes before its /32 is
        // blackholed at minute 300: 34 + 94 kept samples fill exactly two
        // chunks of 64.
        let host = "10.1.0.7";
        let quiet = (0..34).map(|i| sample(i * 8, host, false));
        let burst = (0..94).map(|_| sample(297, host, false));
        let mut c = corpus(1);
        c.updates = UpdateLog::from_updates(vec![
            announce(300, "10.1.0.7/32", 64501),
            withdraw(330, "10.1.0.7/32", 64501),
        ]);
        c.flows = FlowLog::from_samples(quiet.clone().chain(burst).collect());
        let mut config = StreamConfig::for_corpus(&c);
        config.analyzer.chunk_capacity = 64;
        config.analyzer.preevent = crate::preevent::PreEventConfig {
            slot: TimeDelta::minutes(5),
            pre_window: TimeDelta::minutes(300),
            ewma: rtbh_stats::EwmaConfig {
                span: 20,
                threshold_sd: 2.5,
            },
            anomaly_horizon: TimeDelta::minutes(10),
            min_anomalous_value: 4.0,
        };
        let anomaly = |c: &Corpus, retention: Retention| {
            let config = StreamConfig {
                retention,
                ..config
            };
            let run = StreamDriver::new(1).replay(c, config);
            assert_eq!(run.journal.len(), 1);
            run.journal[0].anomaly
        };
        assert!(anomaly(&c, Retention::Unbounded));
        // The announcement applies once the withdrawal passes it; the
        // previous advance (to minute 300) already cut at minute 299, past
        // the newest row of both complete chunks.
        let short = Retention::Window(TimeDelta::minutes(1));
        assert!(!anomaly(&c, short));

        // One burst row fewer and a row at 299:30 towards another host: the
        // burst's second chunk now ends after the cutoff and stays.
        let mut late = sample(299, "192.0.2.9", false);
        late.at += TimeDelta::seconds(30);
        let burst = (0..93).map(|_| sample(297, host, false));
        c.flows = FlowLog::from_samples(quiet.chain(burst).chain([late]).collect());
        assert!(anomaly(&c, Retention::Unbounded));
        assert!(anomaly(&c, short));
    }

    #[test]
    fn backfill_window_rows_over_blocks_match_the_joined_log() {
        // Two full blocks and a partial third, in runs of equal timestamps
        // that straddle both block edges.
        let c = corpus(1);
        let mut config = StreamConfig::for_corpus(&c);
        config.analyzer.chunk_capacity = 64;
        let mut stream = StreamAnalyzer::new(&c, config);
        let n = 2 * BLOCK_ROWS + 37;
        let at = |i: usize| -> i64 {
            // Ten rows around each block edge share one timestamp.
            let (i, edge) = (i as i64, BLOCK_ROWS as i64);
            let near = [edge, 2 * edge]
                .into_iter()
                .find(|e| (e - 5..e + 5).contains(&i));
            3 * near.map_or(i, |e| e - 5)
        };
        for i in 0..n {
            let mut s = sample_at_ms(at(i));
            s.dst_ip = Ipv4Addr::from_u32(0x0a00_0000 | i as u32);
            stream.apply_sample(s);
        }
        assert_eq!(stream.blocks.len(), 3);
        assert!(stream
            .blocks
            .iter()
            .all(|b| b.samples.capacity() == BLOCK_ROWS));
        let joined: Vec<FlowSample> = stream
            .blocks
            .iter()
            .flat_map(|b| b.samples.clone())
            .collect();
        assert_eq!(joined.len(), n);
        let mut probes: Vec<i64> = vec![i64::MIN, -1, 0, 1, 2, at(n - 1), at(n - 1) + 1, i64::MAX];
        for edge in [BLOCK_ROWS, 2 * BLOCK_ROWS] {
            for i in edge - 7..edge + 7 {
                probes.extend([at(i) - 1, at(i), at(i) + 1]);
            }
        }
        for retained_from in [
            0,
            64,
            BLOCK_ROWS - 64,
            BLOCK_ROWS,
            BLOCK_ROWS + 64,
            2 * BLOCK_ROWS,
        ] {
            stream.retained_from = retained_from;
            for &ws in &probes {
                for &we in &probes {
                    let (ws, we) = (Timestamp::from_millis(ws), Timestamp::from_millis(we));
                    // The bounds as one log would give them.
                    let lo = retained_from + joined[retained_from..].partition_point(|s| s.at < ws);
                    let hi = lo + joined[lo..].partition_point(|s| s.at < we);
                    assert_eq!(stream.window_rows(ws, we), (lo, hi), "from {retained_from}");
                }
            }
        }
        // The rows of a range, read across block edges, are the joined
        // log's, each beside its own destination.
        let b = BLOCK_ROWS;
        for (lo, hi) in [
            (0, 0),
            (0, n),
            (b - 3, b + 3),
            (b - 1, b),
            (b, b),
            (b, 2 * b),
            (2 * b - 1, 2 * b + 1),
            (2 * b + 1, n),
            (n, n),
        ] {
            let rows = block_rows(&stream.blocks, lo, hi).flat_map(|(d, s)| d.iter().zip(s));
            let expected = joined[lo..hi].iter().map(|s| (s.dst_ip.to_u32(), s));
            assert!(
                rows.map(|(&dst, s)| (dst, s)).eq(expected),
                "rows {lo}..{hi}"
            );
        }
    }

    #[test]
    fn status_counts_clean_and_pending() {
        let c = build_corpus();
        let run = StreamDriver::new(128).replay(&c, StreamConfig::for_corpus(&c));
        assert_eq!(run.status.internal_removed, 1);
        assert_eq!(
            run.status.samples_kept + run.status.internal_removed,
            run.status.samples_ingested
        );
        assert_eq!(run.status.pending, 0, "finish drains the buffer");
        assert_eq!(run.status.updates_ingested, c.updates.len() as u64);
        assert!(run.status.live_offset_ms.is_some());
    }

    #[test]
    fn a_nested_blackholed_host_backs_only_the_live_anomaly_flag() {
        // Quiet traffic to a host, then a burst in the last slot before its
        // /24 is blackholed; the host's own /32 is blackholed later.
        // A neighbour's /32 inside the /24 is blackholed alongside it.
        let mut c = corpus(1);
        c.updates = UpdateLog::from_updates(vec![
            announce(300, "10.1.0.0/24", 64501),
            announce(300, "10.1.0.8/32", 64501),
            withdraw(330, "10.1.0.0/24", 64501),
            withdraw(330, "10.1.0.8/32", 64501),
            announce(400, "10.1.0.7/32", 64501),
            withdraw(410, "10.1.0.7/32", 64501),
        ]);
        let mut samples: Vec<FlowSample> =
            (0..30).map(|i| sample(i * 10, "10.1.0.7", false)).collect();
        samples.extend((0..120).map(|_| sample(297, "10.1.0.7", false)));
        c.flows = FlowLog::from_samples(samples);
        let mut config = StreamConfig::for_corpus(&c);
        config.analyzer.preevent = crate::preevent::PreEventConfig {
            slot: TimeDelta::minutes(5),
            pre_window: TimeDelta::minutes(300),
            ewma: rtbh_stats::EwmaConfig {
                span: 20,
                threshold_sd: 2.5,
            },
            anomaly_horizon: TimeDelta::minutes(10),
            min_anomalous_value: 4.0,
        };
        let slash24: Prefix = "10.1.0.0/24".parse().unwrap();

        // Live: the backfill counts every row inside the /24, and no row
        // outside the neighbour's /32.
        let run = StreamDriver::new(16).replay(&c, config);
        let live = |prefix: Prefix| {
            let verdict = run.journal.iter().find(|v| v.prefix == prefix);
            verdict.expect("every run is journaled").anomaly
        };
        assert!(live(slash24));
        assert!(!live("10.1.0.8/32".parse().unwrap()));

        // Batch: the burst belongs to the /32, the /24's event sees nothing.
        let batch = Analyzer::new(c, config.analyzer);
        let event = batch.events().iter().find(|e| e.prefix == slash24);
        let class = batch.preevents().per_event[event.expect("the /24 event").id].class;
        assert_eq!(class, PreClass::NoData);
    }

    #[test]
    fn interleave_is_ordered_updates_first() {
        let c = build_corpus();
        let feed = interleave(&c);
        assert_eq!(feed.len(), c.updates.len() + c.flows.len());
        for w in feed.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(a.at() <= b.at());
            if a.at() == b.at() {
                assert!(a.rank() <= b.rank(), "updates precede samples on ties");
            }
        }
    }
}
