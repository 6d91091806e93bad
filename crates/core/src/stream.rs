//! The event-driven streaming analyzer (ROADMAP item 1).
//!
//! [`StreamAnalyzer`] consumes one interleaved, timestamp-ordered feed of
//! BGP updates and flow samples and maintains *live* state while it runs:
//!
//! * a bounded-memory [`ChunkRing`] of [`SealedChunk`]s reusing the batch
//!   store's chunk ABI verbatim (open chunk appends, seals at capacity,
//!   evicts past the retention watermark);
//! * incremental per-prefix blackhole *runs* (the streaming counterpart of
//!   batch Δ-merged [`RtbhEvent`](crate::events::RtbhEvent)s) with EWMA
//!   anomaly backfill over the ring at run start;
//! * a live clock-offset estimate: every dropped sample votes into the
//!   batch estimator's [`OffsetVotes`] as it is applied, so the estimate
//!   sharpens with the watermark instead of waiting for the end of the feed;
//! * continuous emission of per-prefix RTBH verdicts (anomaly-backed /
//!   zombie / squatting) as a journaled event log ([`VerdictRecord`]).
//!
//! # Watermarks and the reorder buffer
//!
//! Real feeds are only *approximately* ordered. Every pushed event enters a
//! small binary-heap reorder buffer keyed by `(timestamp, kind-rank,
//! arrival)`; the **watermark** trails the largest timestamp seen by the
//! configured [`StreamConfig::lateness`]. When the watermark advances, all
//! buffered events *strictly before* it are applied in key order —
//! updates before samples at the same millisecond, original arrival order
//! within each kind — so a feed that was produced by [`interleave`] (or any
//! merge of two individually-ordered logs) is applied in exactly the
//! original per-log order. Events arriving *behind* the watermark are
//! counted in [`StreamStatus::late_dropped`] and never applied.
//!
//! # Determinism and the batch contract
//!
//! Ingest cleans and enriches each sample with the batch prepare's own
//! sample enricher — one MAC-table probe per MAC, one origin walk — so the
//! live rows carry the batch ids for members and origins. The stream
//! accumulates the applied updates and the cleaned samples into ordinary
//! [`UpdateLog`]/[`FlowLog`]s alongside its live state. The finalizer
//! ([`StreamAnalyzer::into_analyzer`]) drops the live state and moves those
//! logs — plus the [`CleanReport`] counters accumulated on ingest and the
//! enricher — into the batch [`Analyzer`]'s one preparation path. For any
//! feed that delivers every event within the lateness bound, the
//! accumulated logs are byte-equal to the batch pipeline's cleaned inputs,
//! so **the finalized [`FullReport`] is byte-identical to
//! `Analyzer::full`'s** (pinned across chunk capacities, feed batch sizes
//! and worker counts by the `stream_diff` differential suite).
//!
//! The *live* verdict journal intentionally follows watermark semantics
//! instead: it knows only the prefixes announced so far, reads unshifted
//! timestamps, and its anomaly backfill scans whatever the ring still
//! retains. Those divergences are documented on [`VerdictRecord`]; the
//! journal itself is deterministic (same feed, same config ⇒ same byte
//! sequence, pinned by the journal replay tests).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_net::{Asn, Interval, Ipv4Addr, Prefix, PrefixTrie, Protocol, TimeDelta, Timestamp};
use rtbh_stats::{EwmaDetector, OffsetVotes};

use crate::classify::UseCase;
use crate::clean::CleanReport;
use crate::columns::{ChunkRing, ChunkRow, SealedChunk, NONE};
use crate::corpus::Corpus;
use crate::index::{OriginTable, SampleEnricher};
use crate::pipeline::{Analyzer, AnalyzerConfig, FullReport};
use crate::preevent::FEATURES;
use crate::profile::{ExecutionMode, PipelineProfile, StageStats};

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

/// Ring retention policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Keep every sealed chunk (the differential-test configuration).
    Unbounded,
    /// Evict sealed chunks wholly older than `watermark - window`.
    Window(TimeDelta),
}

/// Configuration of the streaming analyzer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// The batch analyzer configuration the finalizer runs with; its
    /// `chunk_capacity` also sizes the live ring's chunks.
    pub analyzer: AnalyzerConfig,
    /// Bounded-lateness allowance: events may arrive up to this much
    /// behind the newest timestamp seen and still be applied in order.
    pub lateness: TimeDelta,
    /// Ring retention policy for sealed chunks.
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

/// Reorder-buffer entry, ordered by `(at_ms, rank, arrival)` alone.
struct Pending {
    key: (i64, u8, u64),
    event: StreamEvent,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
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
/// batch classification in documented ways: timestamps are unshifted (the
/// finalizer's clock alignment has not happened yet), the covering-prefix
/// lookup knows only prefixes announced so far, and the anomaly backfill
/// scans whatever the ring still retains. The journal is nonetheless fully
/// deterministic for a given feed and config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRecord {
    /// Monotonic sequence number (0-based, gap-free).
    pub seq: u64,
    /// The blackholed prefix.
    pub prefix: Prefix,
    /// The live use-case verdict (batch precedence: anomaly ⇒
    /// infrastructure protection, else squatting, else zombie, else other).
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
    /// Sealed chunks currently retained by the ring.
    pub ring_chunks: u64,
    /// Rows currently held by the ring (sealed + open).
    pub ring_rows: u64,
    /// Sealed chunks evicted by retention so far.
    pub ring_evicted_chunks: u64,
    /// Rows evicted by retention so far.
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
    /// The batch enricher's MAC table and origin LPM (compiled from the
    /// template alone, so its interned ids equal the batch ones); the
    /// finalizer adds the blackhole tables of the applied updates.
    enricher: SampleEnricher,
    pending: BinaryHeap<Reverse<Pending>>,
    arrival: u64,
    max_seen_ms: Option<i64>,
    watermark_ms: Option<i64>,
    late_dropped: u64,
    /// Applied updates, in applied order (equals the source log for any
    /// feed within the lateness bound).
    updates: UpdateLog,
    /// Applied samples that survived cleaning, in applied order.
    flows: FlowLog,
    clean_total: usize,
    internal_removed: usize,
    ring: ChunkRing,
    bh_trie: PrefixTrie<usize>,
    state: Vec<PrefixState>,
    /// Live offset votes (observability only: the finalizer re-runs batch
    /// alignment); `None` for an invalid offset grid.
    offset: Option<OffsetVotes>,
    journal: Vec<VerdictRecord>,
    next_seq: u64,
    /// Verdicts with `seq < emit_floor` are suppressed (journal recovery).
    emit_floor: u64,
    updates_ingested: u64,
    samples_ingested: u64,
}

impl StreamAnalyzer {
    /// Starts a stream over the corpus's static context (member directory,
    /// registry, routes, period). The corpus's own logs are **not** read —
    /// events arrive exclusively through [`StreamAnalyzer::push`].
    pub fn new(corpus: &Corpus, config: StreamConfig) -> Self {
        let template = Corpus {
            updates: UpdateLog::new(),
            flows: FlowLog::new(),
            caches: Default::default(),
            ..corpus.clone()
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
            pending: BinaryHeap::new(),
            arrival: 0,
            max_seen_ms: None,
            watermark_ms: None,
            late_dropped: 0,
            updates: UpdateLog::new(),
            flows: FlowLog::new(),
            clean_total: 0,
            internal_removed: 0,
            ring: ChunkRing::new(config.analyzer.chunk_capacity),
            bh_trie: PrefixTrie::new(),
            state: Vec::new(),
            offset,
            journal: Vec::new(),
            next_seq: 0,
            emit_floor: 0,
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
        let key = (at_ms, event.rank(), self.arrival);
        self.arrival += 1;
        self.pending.push(Reverse(Pending { key, event }));
        let new_max = match self.max_seen_ms {
            Some(m) => m.max(at_ms),
            None => at_ms,
        };
        self.max_seen_ms = Some(new_max);
        let wm = new_max - self.config.lateness.as_millis();
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
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.key.0 >= wm {
                break;
            }
            let Reverse(p) = self.pending.pop().expect("peeked entry exists");
            self.apply(p.event);
        }
        self.close_stale_runs(Timestamp::from_millis(wm));
        if let Retention::Window(w) = self.config.retention {
            self.ring.evict_before(wm - w.as_millis());
        }
    }

    /// Emits verdicts for runs whose merge-Δ has expired under the
    /// watermark — the continuous-emission half of the contract: a verdict
    /// becomes final as soon as no in-bound event could still extend its
    /// run.
    fn close_stale_runs(&mut self, wm: Timestamp) {
        for id in 0..self.state.len() {
            let stale = {
                let st = &self.state[id];
                st.open_since.is_none()
                    && !st.spans.is_empty()
                    && st.spans.last().map(|iv| iv.end).expect("non-empty")
                        + self.config.analyzer.merge_delta
                        < wm
            };
            if stale {
                self.close_run(id);
            }
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
                let id = match self.bh_trie.get(u.prefix) {
                    Some(&id) => id,
                    None => {
                        let id = self.state.len();
                        self.bh_trie.insert(u.prefix, id);
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
                        // Fresh run: EWMA backfill over the ring decides the
                        // anomaly verdict before any mutable re-borrow.
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
                if let Some(&id) = self.bh_trie.get(u.prefix) {
                    let st = &mut self.state[id];
                    if let Some(t0) = st.open_since.take() {
                        if u.at > t0 {
                            st.spans.push(Interval::new(t0, u.at));
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
        self.clean_total += 1;
        let Some((ingress, egress)) = self.enricher.members(&s) else {
            self.internal_removed += 1;
            return;
        };
        let covering = self.bh_trie.longest_match(s.dst_ip).map(|(_, &id)| id);
        let src_cov = self.bh_trie.longest_match(s.src_ip).map(|(_, &id)| id);
        let mut active = false;
        if let Some(id) = covering {
            match self.state[id].open_since {
                Some(t0) if t0 <= s.at => {
                    active = true;
                    self.state[id].during_packets += 1;
                }
                _ => {
                    if !self.state[id].spans.is_empty() {
                        self.state[id].gap_packets += 1;
                    }
                }
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
        self.ring.push(ChunkRow {
            at: s.at.as_millis(),
            src_ip: s.src_ip.to_u32(),
            dst_ip: s.dst_ip.to_u32(),
            src_port: s.src_port,
            dst_port: s.dst_port,
            protocol: s.protocol.number(),
            packet_len: u32::from(s.packet_len),
            ingress,
            egress,
            origin: self.enricher.origin(s.src_ip),
            dst_pid: covering.map_or(NONE, |id| id as u32),
            src_pid: src_cov.map_or(NONE, |id| id as u32),
            // Live state has one dense id space (prefixes-seen-so-far), so
            // the activity id coincides with the covering id — a documented
            // divergence from the batch store's interval-holding table.
            active_pid: covering.map_or(NONE, |id| id as u32),
            fragment: s.fragment,
            dropped: s.is_dropped(),
            active,
        });
        self.flows.push(s);
    }

    /// EWMA anomaly backfill at run start: rebuilds the batch pre-event
    /// feature series (5-minute slots × 5 features, empty slots as zeros)
    /// for `[start - pre_window, start)` from the ring and runs the same
    /// warm-up-respecting detector pass as
    /// [`crate::preevent::analyze_event`]. Returns the batch
    /// `DataAnomaly` predicate: sampled packets exist and an anomalous
    /// slot lies within the anomaly horizon.
    fn preevent_backfill(&self, prefix: Prefix, start: Timestamp) -> bool {
        let pcfg = &self.config.analyzer.preevent;
        let ws = (start - pcfg.pre_window).as_millis();
        let we = start.as_millis();
        let slots = pcfg.slot_count();
        let slot_ms = pcfg.slot.as_millis();
        let mut packets = vec![0u32; slots];
        let mut flows: Vec<HashSet<(u32, u16, u16, u8)>> = vec![HashSet::new(); slots];
        let mut src_ips: Vec<HashSet<u32>> = vec![HashSet::new(); slots];
        let mut dst_ports: Vec<HashSet<u16>> = vec![HashSet::new(); slots];
        let mut non_tcp = vec![0u32; slots];
        let chunks = self
            .ring
            .sealed()
            .map(|c| (c, true))
            .chain(self.ring.open_chunk().map(|c| (c, false)));
        for (c, sealed) in chunks {
            // The open chunk's headers are stale until sealing — only
            // sealed chunks may be pruned by them.
            if sealed && (c.max_at_millis() < ws || c.min_at_millis() >= we) {
                continue;
            }
            self.scan_chunk_features(
                c,
                prefix,
                ws,
                we,
                slot_ms,
                &mut packets,
                &mut flows,
                &mut src_ips,
                &mut dst_ports,
                &mut non_tcp,
            );
        }
        let mut detectors: Vec<EwmaDetector> = (0..FEATURES)
            .map(|_| EwmaDetector::new(pcfg.ewma))
            .collect();
        let mut hit = false;
        let mut total_packets = 0u64;
        for i in 0..slots {
            total_packets += packets[i] as u64;
            let values = [
                packets[i] as f64,
                flows[i].len() as f64,
                src_ips[i].len() as f64,
                dst_ports[i].len() as f64,
                non_tcp[i] as f64,
            ];
            let before = TimeDelta::millis(we - (ws + slot_ms * i as i64));
            for (f, det) in detectors.iter_mut().enumerate() {
                if let Some(v) = det.push(values[f]) {
                    if v.is_anomaly
                        && v.value >= pcfg.min_anomalous_value
                        && before <= pcfg.anomaly_horizon
                    {
                        hit = true;
                    }
                }
            }
        }
        total_packets > 0 && hit
    }

    /// Accumulates one chunk's in-window rows towards `prefix` into the
    /// per-slot feature accumulators.
    #[allow(clippy::too_many_arguments)]
    fn scan_chunk_features(
        &self,
        c: &SealedChunk,
        prefix: Prefix,
        ws: i64,
        we: i64,
        slot_ms: i64,
        packets: &mut [u32],
        flows: &mut [HashSet<(u32, u16, u16, u8)>],
        src_ips: &mut [HashSet<u32>],
        dst_ports: &mut [HashSet<u16>],
        non_tcp: &mut [u32],
    ) {
        for r in 0..c.len() {
            let t = c.at_millis()[r];
            if t < ws || t >= we {
                continue;
            }
            if !prefix.contains_addr(Ipv4Addr::from_u32(c.dst_ip_raw()[r])) {
                continue;
            }
            let idx = ((t - ws) / slot_ms) as usize;
            if idx >= packets.len() {
                continue;
            }
            packets[idx] += 1;
            flows[idx].insert((
                c.src_ip_raw()[r],
                c.src_ports()[r],
                c.dst_ports()[r],
                c.protocols()[r],
            ));
            src_ips[idx].insert(c.src_ip_raw()[r]);
            dst_ports[idx].insert(c.dst_ports()[r]);
            if Protocol::from_number(c.protocols()[r]) != Protocol::Tcp {
                non_tcp[idx] += 1;
            }
        }
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
        let cc = &self.config.analyzer.classify;
        let use_case = if anomaly {
            UseCase::InfrastructureProtection
        } else if prefix.len() <= 24 && duration >= cc.squatting_min_duration {
            UseCase::SquattingProtection
        } else if prefix.is_host()
            && duration >= cc.zombie_min_duration
            && during < cc.zombie_max_packets
            && open_ended
        {
            UseCase::Zombie
        } else {
            UseCase::Other
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        if seq >= self.emit_floor {
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
        self.emit_floor = last_seq + 1;
    }

    /// Ends the stream: applies every buffered event regardless of the
    /// watermark, closes still-open intervals at the period end (batch
    /// rule: open prefixes close at `corpus_end`), journals every
    /// remaining run and seals the ring's open chunk.
    pub fn finish(&mut self) {
        let drained: Vec<StreamEvent> = {
            let mut out = Vec::with_capacity(self.pending.len());
            while let Some(Reverse(p)) = self.pending.pop() {
                out.push(p.event);
            }
            out
        };
        for event in drained {
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
        self.ring.seal_open();
        #[cfg(debug_assertions)]
        self.ring.check_invariants();
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
    /// The ring, the prefix runs and the journal are freed before the
    /// batch kernels run.
    pub fn into_analyzer(self) -> Analyzer {
        // Consumed in this scope, so every field not moved out is dropped
        // here rather than after preparation returns.
        let (corpus, config, clean_report, enricher) = {
            let stream = self;
            let clean_report = CleanReport {
                total: stream.clean_total,
                internal_removed: stream.internal_removed,
            };
            let corpus = Corpus {
                updates: stream.updates,
                flows: stream.flows,
                caches: Default::default(),
                ..stream.template
            };
            (
                corpus,
                stream.config.analyzer,
                clean_report,
                stream.enricher,
            )
        };
        Analyzer::from_cleaned(corpus, config, clean_report, enricher)
    }

    /// The verdict journal emitted so far (post-[`resume_from`] floor).
    ///
    /// [`resume_from`]: StreamAnalyzer::resume_from
    pub fn journal(&self) -> &[VerdictRecord] {
        &self.journal
    }

    /// The live chunk ring.
    pub fn ring(&self) -> &ChunkRing {
        &self.ring
    }

    /// The current watermark, once any event has been seen.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark_ms.map(Timestamp::from_millis)
    }

    /// A snapshot of every live counter.
    pub fn status(&self) -> StreamStatus {
        StreamStatus {
            updates_ingested: self.updates_ingested,
            samples_ingested: self.samples_ingested,
            samples_kept: self.flows.len() as u64,
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
            ring_chunks: self.ring.sealed_count() as u64,
            ring_rows: self.ring.len() as u64,
            ring_evicted_chunks: self.ring.evicted_chunks() as u64,
            ring_evicted_rows: self.ring.evicted_rows() as u64,
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
    use rtbh_net::{Community, MacAddr};
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
        assert_eq!(stream.flows.len(), 2);
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
        let ats: Vec<i64> = stream
            .flows
            .samples()
            .iter()
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
        // Eviction of live state never changes the finalized report.
        let batch = Analyzer::new(c.clone(), config.analyzer);
        assert_eq!(report_bytes(&run.report), report_bytes(&batch.full()));
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
