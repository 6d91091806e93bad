//! Shared indices: matching sampled packets to blackholed prefixes.
//!
//! Several analyses ask, for every sample, "which blackholed prefix covers
//! this destination (or source)?". This module builds the lookup structures
//! once: a frozen longest-prefix index ([`FrozenLpm`]) over all prefixes
//! that ever appeared in a blackhole announcement, per-prefix time-sorted
//! sample lists, and a prefix→origin table from the route-server snapshot.
//!
//! The two LPM walks per sample happen once, in the columnar enrichment
//! pass ([`crate::columns::ColumnarFlows::build_enriched`]), which records
//! each sample's destination and source prefix ids. [`SampleIndex`] is
//! then built from those id columns alone ([`SampleIndex::from_columns`]).

use std::collections::BTreeMap;

use rtbh_bgp::UpdateLog;
use rtbh_fabric::FlowSample;
use rtbh_net::{Asn, FrozenLpm, Ipv4Addr, Prefix, PrefixTrie};

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

    /// The origin AS of an address, by longest prefix match.
    pub fn origin_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.lpm.longest_match(addr).map(|(_, &asn)| asn)
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

    /// Every origin AS in the table, one per route (duplicates possible).
    /// The enrichment pass unions these with the member ASNs to build its
    /// interned ASN table.
    pub fn asns(&self) -> &[Asn] {
        self.lpm.values()
    }
}

/// Compiles the deduplicated blackholed-prefix set of an update log into a
/// frozen LPM whose payload is the dense prefix id, plus the id → prefix
/// table (first-announcement order). The columnar enrichment pass compiles
/// it and hands the pair on to [`SampleIndex::from_columns`], so both agree
/// on prefix ids.
pub(crate) fn compile_blackhole_prefixes(updates: &UpdateLog) -> (FrozenLpm<usize>, Vec<Prefix>) {
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

/// MAC → member-AS resolver with the blackhole MAC special-cased.
pub struct MacResolver {
    map: BTreeMap<rtbh_net::MacAddr, Asn>,
}

impl MacResolver {
    /// Builds from a corpus member directory.
    pub fn build(corpus: &crate::Corpus) -> Self {
        Self::from_map(corpus.mac_to_member().clone())
    }

    /// Builds from an explicit MAC → member-AS map.
    pub fn from_map(map: BTreeMap<rtbh_net::MacAddr, Asn>) -> Self {
        Self { map }
    }

    /// Every member AS the resolver can return, one per known MAC
    /// (duplicates possible for multi-port members).
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.map.values().copied()
    }

    /// The member AS that handed a sample into the fabric.
    pub fn handover(&self, sample: &FlowSample) -> Option<Asn> {
        self.map.get(&sample.src_mac).copied()
    }

    /// The member AS a sample was delivered to (None for dropped samples).
    pub fn egress(&self, sample: &FlowSample) -> Option<Asn> {
        if sample.dst_mac.is_blackhole() {
            None
        } else {
            self.map.get(&sample.dst_mac).copied()
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
        assert_eq!(table.origin_of("20.1.0.5".parse().unwrap()), Some(Asn(200)));
        assert_eq!(table.origin_of("20.2.0.5".parse().unwrap()), Some(Asn(100)));
        assert_eq!(table.origin_of("21.0.0.1".parse().unwrap()), None);
        assert_eq!(table.len(), 2);
        assert_eq!(table.distinct_origins(), 2);
    }
}
