//! Shared indices: matching sampled packets to blackholed prefixes.
//!
//! Several analyses ask, for every sample, "which blackholed prefix covers
//! this destination (or source)?". This module builds the lookup structures
//! once: the dense ids of all prefixes that ever appeared in a blackhole
//! announcement, per-prefix time-sorted sample lists, and a prefix→origin
//! table from the route-server snapshot.
//!
//! Every per-sample lookup happens once, in the sample enricher that
//! prepare compiles per corpus (`SampleEnricher`). Its one address table
//! covers the route prefixes and the blackholed prefixes together, each
//! valued by the longest blackholed prefix and the longest route over it,
//! so one walk per address answers both questions. Pass 1 probes both
//! MACs of every sample and walks the destination of each kept dropped
//! one; pass 2 probes the source MAC of each kept sample and walks its
//! destination and source once each — the destination walk also yields
//! the covering interval-holding prefix. The sealed chunks record the
//! resulting ids ([`crate::columns::ColumnarFlows`]), and [`SampleIndex`]
//! is then built from those id columns alone
//! ([`SampleIndex::from_columns`]).

use std::collections::BTreeMap;

use rtbh_bgp::{blackhole_intervals, UpdateLog};
use rtbh_fabric::FlowSample;
use rtbh_net::{Asn, FrozenLpm, Interval, Ipv4Addr, MacAddr, Prefix, Timestamp};
use rtbh_stats::OffsetVotes;

use crate::columns::NONE;
use crate::shard;

/// Index over a columnar sample store keyed by the blackholed prefixes of
/// a corpus.
pub struct SampleIndex {
    /// Every prefix that ever carried a blackhole announcement with its
    /// dense id, sorted by prefix: [`SampleIndex::prefix_id`] is one binary
    /// search, and no lookup walks the prefixes by address.
    ids: Vec<(Prefix, u32)>,
    /// Dense id → prefix.
    prefixes: Vec<Prefix>,
    /// Per prefix id: indices (into the sample store) of samples *towards*
    /// the prefix (matched by longest prefix), time-sorted.
    towards: Vec<Vec<u32>>,
    /// Per prefix id: indices of samples *from* addresses inside the prefix.
    from: Vec<Vec<u32>>,
}

impl SampleIndex {
    /// Builds the index from prefix-id columns the enrichment pass already
    /// computed ([`crate::columns::ColumnarFlows`]), skipping the two
    /// per-sample LPM walks entirely: each worker only buckets the
    /// precomputed `dst`/`src` prefix ids of its chunk.
    ///
    /// `lpm` and `prefixes` must be the pair the columns were enriched with
    /// (see `compile_blackhole_prefixes` via
    /// [`crate::columns::ColumnarFlows::build_enriched`]), so the dense ids
    /// line up; only the table's entries are kept. Workers bucket whole
    /// sealed chunks and the partials merge in chunk order, so each list
    /// stays sorted by sample index (= capture time) and the index is
    /// identical for every worker count and every chunk capacity.
    pub fn from_columns(
        lpm: FrozenLpm<usize>,
        prefixes: Vec<Prefix>,
        cols: &crate::columns::ColumnarFlows,
        workers: usize,
    ) -> Self {
        let ids = lpm.iter().map(|(p, &id)| (p, id as u32)).collect();
        Self::from_table(ids, prefixes, cols, workers)
    }

    /// [`SampleIndex::from_columns`] over the sorted `(prefix, dense id)`
    /// table prepare's enricher compiles, so prepare builds no
    /// longest-prefix table for the blackholed prefixes at all.
    pub(crate) fn from_table(
        ids: Vec<(Prefix, u32)>,
        prefixes: Vec<Prefix>,
        cols: &crate::columns::ColumnarFlows,
        workers: usize,
    ) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0].0 < w[1].0), "sorted by prefix");
        let n = prefixes.len();
        let workers = shard::resolve_workers(workers);
        let partials = shard::map_chunks(cols.chunks(), workers, |_, chunks| {
            let mut towards = vec![Vec::new(); n];
            let mut from = vec![Vec::new(); n];
            for c in chunks {
                let base = c.start() as u32;
                for (r, &dst_pid) in c.dst_prefix_ids().iter().enumerate() {
                    if dst_pid != crate::columns::NONE {
                        towards[dst_pid as usize].push(base + r as u32);
                    }
                }
                for (r, &src_pid) in c.src_prefix_ids().iter().enumerate() {
                    if src_pid != crate::columns::NONE {
                        from[src_pid as usize].push(base + r as u32);
                    }
                }
            }
            (towards, from)
        });

        let mut towards = vec![Vec::new(); n];
        let mut from = vec![Vec::new(); n];
        for (chunk_towards, chunk_from) in partials {
            for (id, mut ids) in chunk_towards.into_iter().enumerate() {
                towards[id].append(&mut ids);
            }
            for (id, mut ids) in chunk_from.into_iter().enumerate() {
                from[id].append(&mut ids);
            }
        }
        Self {
            ids,
            prefixes,
            towards,
            from,
        }
    }

    /// All blackholed prefixes, in first-announcement order.
    pub fn prefixes(&self) -> &[Prefix] {
        &self.prefixes
    }

    /// The dense id of a prefix, if it ever carried a blackhole.
    pub fn prefix_id(&self, prefix: Prefix) -> Option<usize> {
        let i = self.ids.binary_search_by_key(&prefix, |&(p, _)| p).ok()?;
        Some(self.ids[i].1 as usize)
    }

    /// Sample indices towards a prefix (longest-prefix matched), time-sorted.
    pub fn towards(&self, id: usize) -> &[u32] {
        &self.towards[id]
    }

    /// Sample indices originating inside a prefix, time-sorted.
    pub fn from(&self, id: usize) -> &[u32] {
        &self.from[id]
    }

    /// Total number of indexed sample references (towards + from) over
    /// every prefix: the input footprint of a stage that walks each
    /// prefix's lists once, like the host analysis.
    pub fn total_ids(&self) -> u64 {
        self.towards
            .iter()
            .chain(&self.from)
            .map(|ids| ids.len() as u64)
            .sum()
    }

    /// Total number of indexed sample references (towards + from) for the
    /// prefixes of the given events, once per event — the input footprint
    /// the per-event analyses traverse, reported by the pipeline's stage
    /// profile.
    pub fn event_sample_footprint(&self, events: &[crate::events::RtbhEvent]) -> u64 {
        events
            .iter()
            .map(|e| match self.prefix_id(e.prefix) {
                Some(id) => (self.towards[id].len() + self.from[id].len()) as u64,
                None => 0,
            })
            .sum()
    }
}

/// A longest-prefix origin-AS table built from the corpus's route snapshot,
/// used to map (unspoofed) source addresses to their origin ASes (§5.5).
pub struct OriginTable {
    lpm: FrozenLpm<Asn>,
}

impl OriginTable {
    /// Builds the table from `(prefix, origin)` pairs. Later duplicates of
    /// a prefix replace earlier ones (each pair is one
    /// [`FrozenLpm::insert`]).
    pub fn build(routes: &[(Prefix, Asn)]) -> Self {
        let mut lpm = FrozenLpm::new();
        for &(p, asn) in routes {
            lpm.insert(p, asn);
        }
        Self { lpm }
    }
}

/// Compiles the deduplicated blackholed-prefix set of an update log into
/// a table of `(prefix, dense id)` sorted by prefix, plus the id → prefix
/// table (first-announcement order). The sample enricher compiles it, and
/// the sealed build hands the pair on to [`SampleIndex`], so both agree on
/// prefix ids. The stream grows its live table the same way, one first
/// announcement at a time.
fn compile_blackhole_prefixes(updates: &UpdateLog) -> (Vec<(Prefix, u32)>, Vec<Prefix>) {
    let mut ids = BTreeMap::new();
    let mut prefixes = Vec::new();
    for u in updates.blackholes() {
        ids.entry(u.prefix).or_insert_with(|| {
            prefixes.push(u.prefix);
            (prefixes.len() - 1) as u32
        });
    }
    (ids.into_iter().collect(), prefixes)
}

/// The MAC → member-AS directory of a corpus, as handed to
/// [`crate::columns::ColumnarFlows::build_enriched`]. Lookups go through
/// the sample enricher compiled from it.
pub struct MacResolver {
    map: BTreeMap<MacAddr, Asn>,
}

impl MacResolver {
    /// Builds from a corpus member directory.
    pub fn build(corpus: &crate::Corpus) -> Self {
        Self::from_map(corpus.mac_to_member().clone())
    }

    /// Builds from an explicit MAC → member-AS map.
    pub fn from_map(map: BTreeMap<MacAddr, Asn>) -> Self {
        Self { map }
    }

    /// The MAC → member-AS map.
    pub(crate) fn map(&self) -> &BTreeMap<MacAddr, Asn> {
        &self.map
    }
}

/// MAC-table value of an internal IXP device: samples touching one are
/// cleaned away (§3.1). Member ids are intern-table indices, far below it.
const INTERNAL: u32 = NONE - 1;

/// An open-addressing hash table from 48-bit MACs to member ids
/// ([`INTERNAL`] for internal devices): one probe sequence per lookup,
/// usually one slot. The hash is a fixed multiplicative one, so the table
/// layout depends on its keys alone. Those keys are the corpus's member
/// directory and device list; a sample's MACs only probe, so no sample can
/// lengthen another's probe sequence.
struct MacTable {
    /// Keys as 48-bit integers; [`MacTable::EMPTY`] marks a free slot.
    keys: Vec<u64>,
    vals: Vec<u32>,
    /// `64 - log2(slots)`: the hash keeps the product's top bits.
    shift: u32,
}

impl MacTable {
    /// No 48-bit key reaches this value.
    const EMPTY: u64 = u64::MAX;

    /// A table with room for `entries` keys at a load factor of at most ½.
    fn with_room(entries: usize) -> Self {
        let slots = (2 * entries).next_power_of_two().max(16);
        Self {
            keys: vec![Self::EMPTY; slots],
            vals: vec![NONE; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    #[inline]
    fn key(mac: MacAddr) -> u64 {
        let o = mac.octets();
        u64::from_be_bytes([0, 0, o[0], o[1], o[2], o[3], o[4], o[5]])
    }

    /// The slot holding `key`, or the free slot it would take.
    #[inline]
    fn slot(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.keys[i] != key && self.keys[i] != Self::EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// Sets the value of `mac`, replacing any earlier one.
    fn insert(&mut self, mac: MacAddr, val: u32) {
        let key = Self::key(mac);
        let i = self.slot(key);
        self.keys[i] = key;
        self.vals[i] = val;
    }

    /// The value of `mac`, or [`NONE`] when the table does not know it.
    #[inline]
    fn get(&self, mac: MacAddr) -> u32 {
        self.vals[self.slot(Self::key(mac))]
    }
}

/// What one address walk answers: the dense id of the longest blackholed
/// prefix and the interned origin-AS id of the longest route over an
/// address, each [`NONE`] when no such prefix covers it.
type AddrIds = (u32, u32);

/// The per-corpus lookup tables of sample enrichment, compiled once and
/// shared by batch prepare, stream ingest and stream finalize:
///
/// * a MAC table answering "interned member id, internal device or
///   unknown" in one probe;
/// * one address table (a stride-8 [`FrozenLpm`]) over the route prefixes
///   and the blackholed prefixes together, valued by [`AddrIds`]: the
///   longest key over an address lies inside the longest blackholed
///   prefix and the longest route over it, so its value answers both;
/// * the blackholed prefixes with their dense ids (a sorted table, not a
///   longest-prefix one: the address table answers every walk), plus
///   `active_of`, which maps each id to the covering interval-holding
///   prefix. Prefixes
///   with intervals come from BLACKHOLE announcements, so they are
///   blackholed prefixes too; the longest one over an address is therefore
///   the longest one over the longest blackholed prefix, and one
///   destination walk yields `dst_pid`, `active_pid` and the intervals the
///   offset votes and the `active` bit read.
///
/// [`SampleEnricher::new`] compiles the MAC table alone; the address
/// table waits for the blackholed prefixes ([`SampleEnricher::with_blackholes`]),
/// so the stream, which only cleans on ingest, never builds one it would
/// rebuild at finalization. The ASN intern table is the sorted union of
/// member ASNs and route origins, so interned ids depend on the member
/// directory and the routes alone: the stream, which compiles its
/// enricher before any update arrives, interns exactly as batch prepare
/// does.
pub(crate) struct SampleEnricher {
    macs: MacTable,
    asns: Vec<Asn>,
    /// The route snapshot with interned origin ids, in prefix order; the
    /// address table consumes it.
    routes: Vec<(Prefix, u32)>,
    addrs: FrozenLpm<AddrIds>,
    /// `(prefix, dense id)` of every blackholed prefix, sorted by prefix.
    blackholes: Vec<(Prefix, u32)>,
    blackhole_prefixes: Vec<Prefix>,
    /// Per blackhole-prefix id: the id of the longest interval-holding
    /// prefix covering it, or [`NONE`].
    active_of: Vec<u32>,
    /// Interval-holding prefixes, in `BTreeMap` (prefix) order.
    active_prefixes: Vec<Prefix>,
    active_intervals: Vec<Vec<Interval>>,
}

/// A forward cursor over intervals sorted by start, answering "does one
/// of them contain `at`?" by the rule of a binary search: the last
/// interval starting at or before `at` decides. Instants that ascend cost
/// a step or two each; the first instant asked, and any that steps back,
/// re-seek by binary search.
#[derive(Clone, Copy)]
pub(crate) struct IntervalCursor {
    /// How many intervals start at or before the last instant asked
    /// (`usize::MAX` before the first).
    next: usize,
}

impl IntervalCursor {
    /// A cursor that has not been asked yet.
    pub(crate) const NEW: Self = Self { next: usize::MAX };

    /// Does one of `ivs`, sorted by start, contain `at`? A cursor serves
    /// one interval list only.
    #[inline]
    pub(crate) fn contains(&mut self, ivs: &[Interval], at: Timestamp) -> bool {
        let mut i = self.next;
        if i > ivs.len() || (i > 0 && ivs[i - 1].start > at) {
            i = ivs.partition_point(|iv| iv.start <= at);
        } else {
            while i < ivs.len() && ivs[i].start <= at {
                i += 1;
            }
        }
        self.next = i;
        i > 0 && ivs[i - 1].contains(at)
    }
}

/// The `active` bit of sealed rows: one [`IntervalCursor`] per
/// interval-holding prefix over its activity intervals.
pub(crate) struct Activity<'a> {
    intervals: &'a [Vec<Interval>],
    cursors: Vec<IntervalCursor>,
}

impl Activity<'_> {
    /// Was the interval-holding prefix `aid` ([`NONE`] = none, never
    /// active) announced at `at`?
    #[inline]
    pub(crate) fn at(&mut self, aid: u32, at: Timestamp) -> bool {
        aid != NONE && self.cursors[aid as usize].contains(&self.intervals[aid as usize], at)
    }
}

/// The lookup tables a sealed build hands on: the ASN intern table and the
/// interval-holding prefixes for [`crate::columns::ColumnarFlows`], the
/// sorted blackhole table and its id → prefix table for [`SampleIndex`].
pub(crate) struct EnricherTables {
    pub asns: Vec<Asn>,
    pub active_prefixes: Vec<Prefix>,
    pub blackholes: Vec<(Prefix, u32)>,
    pub blackhole_prefixes: Vec<Prefix>,
}

/// Compiles the address table over the route and the blackholed prefixes
/// in one ancestor-stack sweep. Prefix order lists every prefix after all
/// of its supernets, so the stack holds exactly the stored supernets of
/// the prefix at hand, and each prefix inherits whichever of its two ids
/// it does not carry itself from the nearest of them.
fn address_table(routes: &[(Prefix, u32)], blackholes: &[(Prefix, u32)]) -> FrozenLpm<AddrIds> {
    // Both lists are sorted and free of duplicates; merge them into one
    // list of `(prefix, own ids)`.
    let mut own: Vec<(Prefix, AddrIds)> = Vec::with_capacity(routes.len() + blackholes.len());
    let mut bh = blackholes.iter().copied().peekable();
    for &(p, origin) in routes {
        while let Some((q, id)) = bh.next_if(|&(q, _)| q < p) {
            own.push((q, (id, NONE)));
        }
        let id = bh.next_if(|&(q, _)| q == p).map_or(NONE, |(_, id)| id);
        own.push((p, (id, origin)));
    }
    own.extend(bh.map(|(q, id)| (q, (id, NONE))));

    let mut stack: Vec<(Prefix, AddrIds)> = Vec::new();
    for (p, ids) in &mut own {
        while stack.last().is_some_and(|&(q, _)| !q.covers(*p)) {
            stack.pop();
        }
        let (up_bh, up_origin) = stack.last().map_or((NONE, NONE), |&(_, up)| up);
        if ids.0 == NONE {
            ids.0 = up_bh;
        }
        if ids.1 == NONE {
            ids.1 = up_origin;
        }
        stack.push((*p, *ids));
    }
    FrozenLpm::from_entries(own)
}

impl SampleEnricher {
    /// Compiles the MAC table and interns the route origins. `members`
    /// maps member ports to their ASes; a MAC also listed in `internal`
    /// reads as internal. The address and blackhole tables start empty
    /// (see [`SampleEnricher::with_blackholes`]).
    pub fn new(
        members: &BTreeMap<MacAddr, Asn>,
        internal: &[MacAddr],
        origins: &OriginTable,
    ) -> Self {
        let mut asns: Vec<Asn> = members
            .values()
            .chain(origins.lpm.values())
            .copied()
            .collect();
        asns.sort_unstable();
        asns.dedup();
        let intern = |asn: &Asn| asns.binary_search(asn).expect("interned") as u32;
        let mut macs = MacTable::with_room(members.len() + internal.len());
        for (&mac, asn) in members {
            macs.insert(mac, intern(asn));
        }
        for &mac in internal {
            macs.insert(mac, INTERNAL);
        }
        let routes = origins.lpm.iter().map(|(p, a)| (p, intern(a))).collect();
        Self {
            macs,
            asns,
            routes,
            addrs: FrozenLpm::new(),
            blackholes: Vec::new(),
            blackhole_prefixes: Vec::new(),
            active_of: Vec::new(),
            active_prefixes: Vec::new(),
            active_intervals: Vec::new(),
        }
    }

    /// Compiles the blackhole tables of an update log — the blackholed
    /// prefixes with their dense ids, and the activity intervals (open
    /// announcements close at `corpus_end`) — and the address table over
    /// those prefixes and the routes. Called once per enricher.
    pub fn with_blackholes(mut self, updates: &UpdateLog, corpus_end: Timestamp) -> Self {
        let (blackholes, blackhole_prefixes) = compile_blackhole_prefixes(updates);
        let intervals = blackhole_intervals(updates.updates().iter(), corpus_end);
        let mut active_ids = BTreeMap::new();
        self.active_prefixes = Vec::with_capacity(intervals.len());
        self.active_intervals = Vec::with_capacity(intervals.len());
        for (p, ivs) in intervals {
            active_ids.insert(p, self.active_prefixes.len() as u32);
            self.active_prefixes.push(p);
            self.active_intervals.push(ivs);
        }
        self.active_of = blackhole_prefixes
            .iter()
            .map(|&p| {
                let mut covering = Some(p);
                while let Some(q) = covering {
                    if let Some(&id) = active_ids.get(&q) {
                        return id;
                    }
                    covering = q.supernet();
                }
                NONE
            })
            .collect();
        self.addrs = address_table(&std::mem::take(&mut self.routes), &blackholes);
        self.blackholes = blackholes;
        self.blackhole_prefixes = blackhole_prefixes;
        self
    }

    /// The interned ingress member id of a sample ([`NONE`] when its
    /// source MAC is unknown), or `None` when either MAC belongs to an
    /// internal device.
    #[inline]
    pub(crate) fn ingress(&self, s: &FlowSample) -> Option<u32> {
        let src = self.macs.get(s.src_mac);
        (src != INTERNAL && self.macs.get(s.dst_mac) != INTERNAL).then_some(src)
    }

    /// The interned member id of a MAC that is not an internal device's
    /// ([`NONE`] when unknown): the ingress id of a sample that pass 1
    /// kept, from its source MAC alone.
    #[inline]
    pub(crate) fn member(&self, mac: MacAddr) -> u32 {
        self.macs.get(mac)
    }

    /// One walk of the address table: the longest blackholed prefix's id
    /// and the longest route's interned origin id over `addr`.
    #[inline]
    pub(crate) fn lookup(&self, addr: Ipv4Addr) -> AddrIds {
        self.addrs
            .longest_value(addr)
            .copied()
            .unwrap_or((NONE, NONE))
    }

    /// The id of the longest interval-holding prefix over a destination
    /// whose longest blackholed prefix is `dst_pid`.
    #[inline]
    pub(crate) fn active_id(&self, dst_pid: u32) -> u32 {
        if dst_pid == NONE {
            NONE
        } else {
            self.active_of[dst_pid as usize]
        }
    }

    /// The activity intervals of the longest interval-holding prefix over
    /// `dst` (empty when none covers it) — what a dropped sample votes
    /// against.
    #[inline]
    fn intervals(&self, dst: Ipv4Addr) -> &[Interval] {
        match self.active_id(self.lookup(dst).0) {
            NONE => &[],
            aid => &self.active_intervals[aid as usize],
        }
    }

    /// Was the interval-holding prefix `aid` ([`NONE`] = none, never
    /// active) announced at `at`? One binary search per call: the oracle
    /// of [`Activity::at`].
    #[cfg(test)]
    pub(crate) fn active_at(&self, aid: u32, at: Timestamp) -> bool {
        aid != NONE && {
            let ivs = &self.active_intervals[aid as usize];
            let idx = ivs.partition_point(|iv| iv.start <= at);
            idx > 0 && ivs[idx - 1].contains(at)
        }
    }

    /// Fresh activity cursors, one per interval-holding prefix.
    pub(crate) fn activity(&self) -> Activity<'_> {
        Activity {
            intervals: &self.active_intervals,
            cursors: vec![IntervalCursor::NEW; self.active_intervals.len()],
        }
    }

    /// The activity intervals of every interval-holding prefix, in prefix
    /// order: what [`rtbh_bgp::blackhole_intervals`] returned for the
    /// update log [`SampleEnricher::with_blackholes`] compiled.
    pub(crate) fn intervals_by_prefix(&self) -> impl Iterator<Item = (Prefix, &[Interval])> {
        self.active_prefixes
            .iter()
            .zip(&self.active_intervals)
            .map(|(&p, ivs)| (p, ivs.as_slice()))
    }

    /// Pass 1 of prepare, sharded over `workers` scoped threads: the
    /// sorted indices of the internal samples, plus one partial of `votes`
    /// per shard (in shard order) counting the kept dropped samples
    /// against their destination's activity intervals. `votes` is `None`
    /// for an invalid offset grid, and then no shard votes.
    ///
    /// The log is read in place as its parts laid end to end, and indices
    /// count across them; the shards split the rows, not the parts, into
    /// near-equal ranges.
    pub fn scan(
        &self,
        log: &[&[FlowSample]],
        votes: Option<&OffsetVotes>,
        workers: usize,
    ) -> (Vec<u32>, Vec<OffsetVotes>) {
        let log = shard::Concat::new(log);
        let shards = shard::map_ranges(log.len(), workers, |lo, hi| {
            let mut removed = Vec::new();
            let mut votes = votes.cloned();
            for (start, run) in log.runs(lo, hi) {
                for (i, s) in run.iter().enumerate() {
                    if self.ingress(s).is_none() {
                        removed.push(u32::try_from(start + i).expect("sample ids are u32"));
                    } else if let Some(v) = votes.as_mut().filter(|_| s.is_dropped()) {
                        v.observe(s.at, self.intervals(s.dst_ip));
                    }
                }
            }
            (removed, votes)
        });
        let mut removed = Vec::new();
        let mut partials = Vec::new();
        for (mut r, v) in shards {
            removed.append(&mut r);
            partials.extend(v);
        }
        (removed, partials)
    }

    /// Gives up the tables a sealed build keeps.
    pub fn into_tables(self) -> EnricherTables {
        EnricherTables {
            asns: self.asns,
            active_prefixes: self.active_prefixes,
            blackholes: self.blackholes,
            blackhole_prefixes: self.blackhole_prefixes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::ColumnarFlows;
    use rtbh_bgp::{BgpUpdate, UpdateKind};
    use rtbh_fabric::FlowLog;
    use rtbh_net::{Community, MacAddr, Protocol, Timestamp};

    /// The production build: enrich the log into sealed chunks of
    /// `capacity` rows, then bucket their prefix-id columns.
    fn index(updates: &UpdateLog, flows: &FlowLog, workers: usize, capacity: usize) -> SampleIndex {
        let enriched = ColumnarFlows::build_enriched_with_capacity(
            updates,
            flows,
            &MacResolver::from_map(BTreeMap::new()),
            &OriginTable::build(&[]),
            Timestamp::EPOCH,
            workers,
            capacity,
        );
        SampleIndex::from_columns(
            enriched.blackholes,
            enriched.blackhole_prefixes,
            &enriched.columns,
            workers,
        )
    }

    fn bh(prefix: &str) -> BgpUpdate {
        BgpUpdate {
            at: Timestamp::EPOCH,
            peer: Asn(1),
            prefix: prefix.parse().unwrap(),
            origin: Asn(1),
            kind: UpdateKind::Announce,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    fn flow(src: &str, dst: &str) -> FlowSample {
        FlowSample {
            at: Timestamp::EPOCH,
            src_mac: MacAddr::from_id(1),
            dst_mac: MacAddr::from_id(2),
            src_ip: src.parse().unwrap(),
            dst_ip: dst.parse().unwrap(),
            protocol: Protocol::Udp,
            src_port: 53,
            dst_port: 4444,
            packet_len: 1400,
            fragment: false,
        }
    }

    #[test]
    fn index_assigns_by_longest_prefix() {
        let updates = UpdateLog::from_updates(vec![bh("10.0.0.0/24"), bh("10.0.0.7/32")]);
        let flows = FlowLog::from_samples(vec![
            flow("8.8.8.8", "10.0.0.7"), // /32 wins
            flow("8.8.8.8", "10.0.0.9"), // /24
            flow("10.0.0.7", "8.8.8.8"), // from /32
            flow("8.8.8.8", "11.0.0.1"), // unmatched
        ]);
        let idx = index(&updates, &flows, 1, 0);
        assert_eq!(idx.prefixes().len(), 2);
        let id24 = idx.prefix_id("10.0.0.0/24".parse().unwrap()).unwrap();
        let id32 = idx.prefix_id("10.0.0.7/32".parse().unwrap()).unwrap();
        assert_eq!(idx.towards(id32).len(), 1);
        assert_eq!(idx.towards(id24).len(), 1);
        assert_eq!(idx.from(id32).len(), 1);
        assert_eq!(idx.from(id24).len(), 0);
        // The unmatched sample is not indexed; the /32's one sample counts
        // once in each direction.
        assert_eq!(idx.total_ids(), 3);
    }

    #[test]
    fn duplicate_announcements_index_once() {
        let updates = UpdateLog::from_updates(vec![bh("10.0.0.7/32"), bh("10.0.0.7/32")]);
        let idx = index(&updates, &FlowLog::new(), 1, 0);
        assert_eq!(idx.prefixes().len(), 1);
    }

    #[test]
    fn build_is_worker_count_invariant() {
        let updates =
            UpdateLog::from_updates(vec![bh("10.0.0.0/24"), bh("10.0.0.7/32"), bh("20.0.0.0/8")]);
        let samples: Vec<FlowSample> = (0..257)
            .map(|i| {
                let dst = format!("10.0.{}.{}", i % 2, i % 251);
                let src = format!("20.{}.0.9", i % 7);
                flow(&src, &dst)
            })
            .collect();
        let flows = FlowLog::from_samples(samples);
        let reference = index(&updates, &flows, 1, 0);
        for (workers, capacity) in [(2, 64), (3, 64), (16, 64), (3, 0)] {
            let sharded = index(&updates, &flows, workers, capacity);
            assert_eq!(reference.prefixes(), sharded.prefixes());
            for id in 0..reference.prefixes().len() {
                let label = format!("{workers} workers, capacity {capacity}");
                assert_eq!(reference.towards(id), sharded.towards(id), "{label}");
                assert_eq!(reference.from(id), sharded.from(id), "{label}");
            }
        }
    }

    #[test]
    fn origin_table_longest_match() {
        let table = OriginTable::build(&[
            ("20.0.0.0/8".parse().unwrap(), Asn(100)),
            ("20.1.0.0/24".parse().unwrap(), Asn(200)),
        ]);
        // The enricher walks the table's routes with interned values; its
        // intern table is the union of member and origin ASNs, sorted.
        let members = BTreeMap::from([(MacAddr::from_id(1), Asn(150))]);
        let enricher = SampleEnricher::new(&members, &[], &table);
        assert_eq!(enricher.asns, [Asn(100), Asn(150), Asn(200)]);
        // The address table waits for the blackholed prefixes.
        assert!(enricher.addrs.is_empty());
        let enricher = enricher.with_blackholes(&UpdateLog::new(), Timestamp::EPOCH);
        let origin = |addr: &str| {
            let (bh, id) = enricher.lookup(addr.parse().unwrap());
            assert_eq!(bh, NONE);
            (id != NONE).then(|| enricher.asns[id as usize])
        };
        assert_eq!(origin("20.1.0.5"), Some(Asn(200)));
        assert_eq!(origin("20.2.0.5"), Some(Asn(100)));
        assert_eq!(origin("21.0.0.1"), None);
    }

    /// The address table against one trie per question, on seeded tables
    /// where routes and blackholed prefixes nest both ways, share
    /// prefixes, and include /0 and /32s; probes hit every prefix's first
    /// and last address and their outside neighbours.
    #[test]
    fn one_address_walk_answers_both_tries() {
        use rtbh_net::PrefixTrie;
        use rtbh_rng::{ChaChaRng, Rng};
        let mut rng = ChaChaRng::seed_from_u64(0xadd2_7ab1_u64);
        for case in 0..60 {
            // Prefixes from a few /16s, so they nest and collide often.
            let bases = [0x0a00_0000u32, 0x0a01_0000, 0xc633_6400];
            let draw = |rng: &mut ChaChaRng| {
                let base = bases[rng.gen_range(0..bases.len())];
                let len = [0u8, 8, 12, 16, 20, 24, 28, 30, 31, 32][rng.gen_range(0..10usize)];
                let addr = Ipv4Addr::from_u32(base | rng.gen_range(0..0x1_0000u32));
                Prefix::new(addr, len).unwrap()
            };
            let routes: Vec<(Prefix, Asn)> = (0..rng.gen_range(0..=12usize))
                .map(|i| (draw(&mut rng), Asn(100 + i as u32)))
                .collect();
            let mut announced: Vec<Prefix> = (0..rng.gen_range(0..=12usize))
                .map(|_| draw(&mut rng))
                .collect();
            if case % 2 == 0 && !routes.is_empty() {
                // A route that is also a blackholed prefix.
                announced.push(routes[rng.gen_range(0..routes.len())].0);
            }
            let updates =
                UpdateLog::from_updates(announced.iter().map(|p| bh(&p.to_string())).collect());
            let origins = OriginTable::build(&routes);
            let enricher = SampleEnricher::new(&BTreeMap::new(), &[], &origins)
                .with_blackholes(&updates, Timestamp::EPOCH);

            let mut route_trie = PrefixTrie::new();
            for &(p, asn) in &routes {
                route_trie.insert(p, asn);
            }
            let mut bh_trie = PrefixTrie::new();
            for p in &announced {
                bh_trie.insert(*p, ());
            }
            let mut probes: Vec<Ipv4Addr> = (0..32)
                .map(|_| Ipv4Addr::from_u32(bases[case % 3] | rng.gen_range(0..0x1_0000u32)))
                .collect();
            for p in routes.iter().map(|r| r.0).chain(announced.iter().copied()) {
                probes.extend([
                    p.network(),
                    p.last_addr(),
                    p.network().wrapping_add(u32::MAX),
                    p.last_addr().wrapping_add(1),
                ]);
            }
            for addr in probes {
                let (bh_id, origin_id) = enricher.lookup(addr);
                let bh_prefix =
                    (bh_id != NONE).then(|| enricher.blackhole_prefixes[bh_id as usize]);
                let origin = (origin_id != NONE).then(|| enricher.asns[origin_id as usize]);
                assert_eq!(
                    bh_prefix,
                    bh_trie.longest_match(addr).map(|(p, _)| p),
                    "case {case}: blackhole of {addr}"
                );
                assert_eq!(
                    origin,
                    route_trie.longest_match(addr).map(|(_, &asn)| asn),
                    "case {case}: origin of {addr}"
                );
            }
        }
    }

    #[test]
    fn mac_table_resolves_members_and_internal_devices() {
        let mut sample = flow("8.8.8.8", "10.0.0.1");
        // Many ports, so probe sequences collide and wrap.
        let members: BTreeMap<MacAddr, Asn> = (1..=500)
            .map(|i| (MacAddr::from_id(i), Asn(64_000 + i % 7)))
            .collect();
        // Port 3 is also listed as an internal device: internal wins.
        let internal = [MacAddr::from_id(3), MacAddr::from_id(0xF000)];
        let enricher = SampleEnricher::new(&members, &internal, &OriginTable::build(&[]));
        let id = |asn: u32| enricher.asns.binary_search(&Asn(asn)).unwrap() as u32;
        for i in 1..=500u32 {
            let expected = if i == 3 { INTERNAL } else { id(64_000 + i % 7) };
            assert_eq!(enricher.macs.get(MacAddr::from_id(i)), expected, "port {i}");
        }
        assert_eq!(enricher.macs.get(MacAddr::from_id(0xF000)), INTERNAL);
        assert_eq!(enricher.macs.get(MacAddr::from_id(501)), NONE);
        assert_eq!(enricher.ingress(&sample), Some(id(64_001)));
        sample.dst_mac = MacAddr::BLACKHOLE;
        assert_eq!(enricher.ingress(&sample), Some(id(64_001)));
        sample.dst_mac = MacAddr::from_id(0xF000);
        assert_eq!(enricher.ingress(&sample), None);
        sample.dst_mac = MacAddr::from_id(2);
        sample.src_mac = MacAddr::from_id(3);
        assert_eq!(enricher.ingress(&sample), None);
        sample.src_mac = MacAddr::from_id(0xF001);
        assert_eq!(enricher.ingress(&sample), Some(NONE));
    }

    #[test]
    fn one_destination_walk_finds_the_covering_interval_prefix() {
        let at = |ms: i64, kind: UpdateKind, prefix: &str| BgpUpdate {
            at: Timestamp(ms),
            kind,
            ..bh(prefix)
        };
        // 10.0.0.0/24 holds an interval; 10.0.0.7/32 and 11.0.0.0/8 only
        // degenerate ones, so they are blackholed but hold none.
        let updates = UpdateLog::from_updates(vec![
            bh("10.0.0.0/24"),
            bh("10.0.0.7/32"),
            at(0, UpdateKind::Withdraw, "10.0.0.7/32"),
            at(1, UpdateKind::Announce, "11.0.0.0/8"),
            at(1, UpdateKind::Withdraw, "11.0.0.0/8"),
        ]);
        let enricher = SampleEnricher::new(&BTreeMap::new(), &[], &OriginTable::build(&[]))
            .with_blackholes(&updates, Timestamp(100));
        assert_eq!(enricher.active_prefixes.len(), 1);
        // `(dst_pid, active_pid, active)` of a destination at 50 ms.
        let walk = |dst: &str| {
            let dst_pid = enricher.lookup(dst.parse().unwrap()).0;
            let active_pid = enricher.active_id(dst_pid);
            (
                dst_pid,
                active_pid,
                enricher.active_at(active_pid, Timestamp(50)),
            )
        };
        let (dst_pid, active_pid, active) = walk("10.0.0.7");
        assert_eq!(enricher.blackhole_prefixes[dst_pid as usize].len(), 32);
        assert_eq!(active_pid, 0);
        assert!(active);
        assert_eq!(enricher.intervals("10.0.0.7".parse().unwrap()).len(), 1);
        let (dst_pid, active_pid, active) = walk("11.0.0.1");
        assert_ne!(dst_pid, NONE);
        assert_eq!(active_pid, NONE);
        assert!(!active);
        assert!(enricher.intervals("11.0.0.1".parse().unwrap()).is_empty());
        assert_eq!(walk("12.0.0.1").0, NONE);
    }
}
