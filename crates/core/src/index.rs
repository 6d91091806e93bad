//! Shared indices: matching sampled packets to blackholed prefixes.
//!
//! Several analyses ask, for every sample, "which blackholed prefix covers
//! this destination (or source)?". This module builds the lookup structures
//! once: a frozen longest-prefix index ([`FrozenLpm`]) over all prefixes
//! that ever appeared in a blackhole announcement, per-prefix time-sorted
//! sample lists, and a prefix→origin table from the route-server snapshot.
//!
//! Every per-sample lookup happens once, in the sample enricher that
//! prepare compiles per corpus (`SampleEnricher`): one MAC-table probe per
//! MAC, one origin walk, and one blackhole walk each for destination and
//! source — the destination walk also yields the covering
//! interval-holding prefix. The sealed chunks record the resulting ids
//! ([`crate::columns::ColumnarFlows`]), and [`SampleIndex`] is then built
//! from those id columns alone ([`SampleIndex::from_columns`]).

use std::collections::BTreeMap;

use rtbh_bgp::{blackhole_intervals, UpdateLog};
use rtbh_fabric::FlowSample;
use rtbh_net::{
    Asn, FrozenLpm, Interval, Ipv4Addr, MacAddr, Prefix, PrefixTrie, TimeDelta, Timestamp,
};
use rtbh_stats::OffsetVotes;

use crate::columns::{ChunkRow, NONE};
use crate::shard;

/// Index over a columnar sample store keyed by the blackholed prefixes of
/// a corpus.
pub struct SampleIndex {
    /// Frozen LPM index over every prefix that ever carried a blackhole
    /// announcement; the payload is the dense prefix id.
    lpm: FrozenLpm<usize>,
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
    /// line up. Workers bucket whole sealed chunks and the partials merge
    /// in chunk order, so each list stays sorted by sample index (= capture
    /// time) and the index is identical for every worker count and every
    /// chunk capacity.
    pub fn from_columns(
        lpm: FrozenLpm<usize>,
        prefixes: Vec<Prefix>,
        cols: &crate::columns::ColumnarFlows,
        workers: usize,
    ) -> Self {
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
            lpm,
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
        self.lpm.get(prefix).copied()
    }

    /// The most specific blackholed prefix covering an address.
    pub fn covering(&self, addr: Ipv4Addr) -> Option<(Prefix, usize)> {
        self.lpm.longest_match(addr).map(|(p, &id)| (p, id))
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
    /// Distinct origin ASes, computed once at build time (the table is
    /// immutable, so the count can never go stale).
    distinct_origins: usize,
}

impl OriginTable {
    /// Builds the table from `(prefix, origin)` pairs. Later duplicates of
    /// a prefix replace earlier ones, like repeated trie inserts would.
    pub fn build(routes: &[(Prefix, Asn)]) -> Self {
        let mut trie = PrefixTrie::new();
        for (p, asn) in routes {
            trie.insert(*p, *asn);
        }
        let lpm = FrozenLpm::from_trie(&trie);
        let mut origins: Vec<Asn> = lpm.values().to_vec();
        origins.sort();
        origins.dedup();
        let distinct_origins = origins.len();
        Self {
            lpm,
            distinct_origins,
        }
    }

    /// Number of routes in the table.
    pub fn len(&self) -> usize {
        self.lpm.len()
    }

    /// True when no routes are loaded.
    pub fn is_empty(&self) -> bool {
        self.lpm.is_empty()
    }

    /// Number of distinct origin ASes advertised (precomputed at build).
    pub fn distinct_origins(&self) -> usize {
        self.distinct_origins
    }
}

/// Compiles the deduplicated blackholed-prefix set of an update log into a
/// frozen LPM whose payload is the dense prefix id, plus the id → prefix
/// table (first-announcement order). The sample enricher compiles it, and
/// the sealed chunks hand the pair on to [`SampleIndex::from_columns`], so
/// both agree on prefix ids.
fn compile_blackhole_prefixes(updates: &UpdateLog) -> (FrozenLpm<usize>, Vec<Prefix>) {
    let mut trie = PrefixTrie::new();
    let mut prefixes = Vec::new();
    for u in updates.blackholes() {
        if trie.get(u.prefix).is_none() {
            trie.insert(u.prefix, prefixes.len());
            prefixes.push(u.prefix);
        }
    }
    (FrozenLpm::from_trie(&trie), prefixes)
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

/// The per-corpus lookup tables of sample enrichment, compiled once and
/// shared by batch prepare, stream ingest and stream finalize:
///
/// * a MAC table answering "interned member id, internal device or
///   unknown" in one probe;
/// * an origin LPM over the route snapshot whose values are already
///   interned ASN ids;
/// * the blackhole LPM with its dense prefix ids, plus `active_of`, which
///   maps each id to the covering interval-holding prefix. Prefixes with
///   intervals come from BLACKHOLE announcements, so they are blackholed
///   prefixes too; the longest one over an address is therefore the
///   longest one over the longest blackholed prefix, and one destination
///   walk yields `dst_pid`, `active_pid` and the intervals the offset
///   votes and the `active` bit read.
///
/// The ASN intern table is the sorted union of member ASNs and route
/// origins, so interned ids depend on the member directory and the routes
/// alone: the stream, which compiles its enricher before any update
/// arrives, interns exactly as batch prepare does.
pub(crate) struct SampleEnricher {
    macs: MacTable,
    origins: FrozenLpm<u32>,
    asns: Vec<Asn>,
    blackholes: FrozenLpm<usize>,
    blackhole_prefixes: Vec<Prefix>,
    /// Per blackhole-prefix id: the id of the longest interval-holding
    /// prefix covering it, or [`NONE`].
    active_of: Vec<u32>,
    /// Interval-holding prefixes, in `BTreeMap` (prefix) order.
    active_prefixes: Vec<Prefix>,
    active_intervals: Vec<Vec<Interval>>,
}

/// The lookup tables a sealed build hands on: the ASN intern table and the
/// interval-holding prefixes for [`crate::columns::ColumnarFlows`], the
/// blackhole LPM and its id table for [`SampleIndex::from_columns`].
pub(crate) struct EnricherTables {
    pub asns: Vec<Asn>,
    pub active_prefixes: Vec<Prefix>,
    pub blackholes: FrozenLpm<usize>,
    pub blackhole_prefixes: Vec<Prefix>,
}

impl SampleEnricher {
    /// Compiles the MAC table and the origin LPM. `members` maps member
    /// ports to their ASes; a MAC also listed in `internal` reads as
    /// internal. The blackhole tables start empty (see
    /// [`SampleEnricher::with_blackholes`]).
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
        let origins = FrozenLpm::from_entries(origins.lpm.iter().map(|(p, a)| (p, intern(a))));
        Self {
            macs,
            origins,
            asns,
            blackholes: FrozenLpm::from_entries([]),
            blackhole_prefixes: Vec::new(),
            active_of: Vec::new(),
            active_prefixes: Vec::new(),
            active_intervals: Vec::new(),
        }
    }

    /// Compiles the blackhole tables of an update log: the blackholed
    /// prefixes with their dense ids, and the activity intervals (open
    /// announcements close at `corpus_end`).
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
        self.blackholes = blackholes;
        self.blackhole_prefixes = blackhole_prefixes;
        self
    }

    /// The interned `(ingress, egress)` member ids of a sample ([`NONE`]
    /// where unknown; egress is [`NONE`] for dropped samples), or `None`
    /// when either MAC belongs to an internal device.
    #[inline]
    pub fn members(&self, s: &FlowSample) -> Option<(u32, u32)> {
        let src = self.macs.get(s.src_mac);
        let dst = self.macs.get(s.dst_mac);
        if src == INTERNAL || dst == INTERNAL {
            return None;
        }
        Some((src, if s.is_dropped() { NONE } else { dst }))
    }

    /// The interned origin-AS id of an address ([`NONE`] = unrouted).
    #[inline]
    pub fn origin(&self, addr: Ipv4Addr) -> u32 {
        self.origins.longest_match(addr).map_or(NONE, |(_, &id)| id)
    }

    /// The dense id of the longest blackholed prefix over an address.
    #[inline]
    fn blackhole(&self, addr: Ipv4Addr) -> u32 {
        self.blackholes
            .longest_match(addr)
            .map_or(NONE, |(_, &id)| id as u32)
    }

    /// The id of the longest interval-holding prefix over a destination
    /// whose longest blackholed prefix is `dst_pid`.
    #[inline]
    fn active_id(&self, dst_pid: u32) -> u32 {
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
        match self.active_id(self.blackhole(dst)) {
            NONE => &[],
            aid => &self.active_intervals[aid as usize],
        }
    }

    /// Enriches one sample into a chunk row with its timestamp moved by
    /// `offset`, or `None` when the sample is internal traffic.
    #[inline]
    pub fn row(&self, s: &FlowSample, offset: TimeDelta) -> Option<ChunkRow> {
        let (ingress, egress) = self.members(s)?;
        let at = s.at + offset;
        let dst_pid = self.blackhole(s.dst_ip);
        let active_pid = self.active_id(dst_pid);
        let active = active_pid != NONE && {
            let ivs = &self.active_intervals[active_pid as usize];
            let idx = ivs.partition_point(|iv| iv.start <= at);
            idx > 0 && ivs[idx - 1].contains(at)
        };
        Some(ChunkRow {
            at: at.as_millis(),
            src_ip: s.src_ip.to_u32(),
            dst_ip: s.dst_ip.to_u32(),
            src_port: s.src_port,
            dst_port: s.dst_port,
            protocol: s.protocol.number(),
            packet_len: u32::from(s.packet_len),
            ingress,
            egress,
            origin: self.origin(s.src_ip),
            dst_pid,
            src_pid: self.blackhole(s.src_ip),
            active_pid,
            fragment: s.fragment,
            dropped: s.is_dropped(),
            active,
        })
    }

    /// Pass 1 of prepare, sharded over `workers` scoped threads: the
    /// sorted indices of the internal samples, plus one partial of `votes`
    /// per shard (in shard order) counting the kept dropped samples
    /// against their destination's activity intervals. `votes` is `None`
    /// for an invalid offset grid, and then no shard votes.
    pub fn scan(
        &self,
        samples: &[FlowSample],
        votes: Option<&OffsetVotes>,
        workers: usize,
    ) -> (Vec<u32>, Vec<OffsetVotes>) {
        let shards = shard::map_chunks(samples, workers, |start, chunk| {
            let mut removed = Vec::new();
            let mut votes = votes.cloned();
            for (i, s) in chunk.iter().enumerate() {
                if self.members(s).is_none() {
                    removed.push(u32::try_from(start + i).expect("sample ids are u32"));
                } else if let Some(v) = votes.as_mut().filter(|_| s.is_dropped()) {
                    v.observe(s.at, self.intervals(s.dst_ip));
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
        let (covering, _) = idx.covering("10.0.0.7".parse().unwrap()).unwrap();
        assert_eq!(covering, "10.0.0.7/32".parse().unwrap());
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
        assert_eq!(table.len(), 2);
        assert_eq!(table.distinct_origins(), 2);
        // The enricher walks the table's routes with interned values; its
        // intern table is the union of member and origin ASNs, sorted.
        let members = BTreeMap::from([(MacAddr::from_id(1), Asn(150))]);
        let enricher = SampleEnricher::new(&members, &[], &table);
        assert_eq!(enricher.asns, [Asn(100), Asn(150), Asn(200)]);
        let origin = |addr: &str| {
            let id = enricher.origin(addr.parse().unwrap());
            (id != NONE).then(|| enricher.asns[id as usize])
        };
        assert_eq!(origin("20.1.0.5"), Some(Asn(200)));
        assert_eq!(origin("20.2.0.5"), Some(Asn(100)));
        assert_eq!(origin("21.0.0.1"), None);
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
        assert_eq!(enricher.members(&sample), Some((id(64_001), id(64_002))));
        sample.dst_mac = MacAddr::BLACKHOLE;
        assert_eq!(enricher.members(&sample), Some((id(64_001), NONE)));
        sample.src_mac = MacAddr::from_id(3);
        assert_eq!(enricher.members(&sample), None);
        sample.src_mac = MacAddr::from_id(0xF001);
        assert_eq!(enricher.members(&sample), Some((NONE, NONE)));
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
        let row = |dst: &str, at: i64| {
            let mut s = flow("8.8.8.8", dst);
            s.at = Timestamp(at);
            enricher.row(&s, TimeDelta::ZERO).unwrap()
        };
        let host = row("10.0.0.7", 50);
        assert_eq!(enricher.blackhole_prefixes[host.dst_pid as usize].len(), 32);
        assert_eq!(host.active_pid, 0);
        assert!(host.active);
        assert_eq!(enricher.intervals("10.0.0.7".parse().unwrap()).len(), 1);
        let outside = row("11.0.0.1", 50);
        assert_ne!(outside.dst_pid, NONE);
        assert_eq!(outside.active_pid, NONE);
        assert!(!outside.active);
        assert!(enricher.intervals("11.0.0.1".parse().unwrap()).is_empty());
        assert_eq!(row("12.0.0.1", 50).dst_pid, NONE);
        // The row's timestamp is the shifted one, and activity reads it.
        let mut s = flow("8.8.8.8", "10.0.0.9");
        s.at = Timestamp(-5);
        let shifted = enricher.row(&s, TimeDelta::millis(10)).unwrap();
        assert_eq!(shifted.at, 5);
        assert!(shifted.active);
    }
}
