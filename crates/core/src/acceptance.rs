//! Blackhole route acceptance (paper §4.2, Figs. 5–8).
//!
//! Whether a peer *accepts* a blackhole route is invisible on the control
//! plane — it only shows on the data plane, as traffic that keeps flowing to
//! a blackholed prefix. This module attributes every sample that arrives
//! during an active blackhole to dropped/forwarded, and aggregates:
//!
//! * **by prefix length** (Fig. 5): the paper's headline — /32 blackholes
//!   drop only ~50% of packets (44% of bytes) while /22–/24 drop 93–99%;
//! * **per-prefix drop-rate CDFs** for /24 vs /32 (Fig. 6);
//! * **per source AS** (Fig. 7): the top-100 traffic sources split into
//!   ~32 dropping >99%, ~55 forwarding >99%, ~13 inconsistent;
//! * **org types** of those top-100 ASes (Fig. 8).

use std::collections::BTreeMap;

use rtbh_net::{Asn, Prefix};
use rtbh_peeringdb::{OrgType, Registry};
use rtbh_stats::{top_k_by, Ecdf};

use crate::columns::{ColumnarFlows, NONE};

/// Dropped/forwarded tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropTally {
    /// Dropped packets (samples).
    pub dropped_packets: u64,
    /// Forwarded packets.
    pub forwarded_packets: u64,
    /// Dropped bytes.
    pub dropped_bytes: u64,
    /// Forwarded bytes.
    pub forwarded_bytes: u64,
}

impl DropTally {
    fn add(&mut self, dropped: bool, len: u32) {
        if dropped {
            self.dropped_packets += 1;
            self.dropped_bytes += len as u64;
        } else {
            self.forwarded_packets += 1;
            self.forwarded_bytes += len as u64;
        }
    }

    /// Folds another tally in (all fields are sums).
    fn absorb(&mut self, other: &DropTally) {
        self.dropped_packets += other.dropped_packets;
        self.forwarded_packets += other.forwarded_packets;
        self.dropped_bytes += other.dropped_bytes;
        self.forwarded_bytes += other.forwarded_bytes;
    }

    /// Total packets.
    pub fn packets(&self) -> u64 {
        self.dropped_packets + self.forwarded_packets
    }

    /// Total bytes.
    pub fn bytes(&self) -> u64 {
        self.dropped_bytes + self.forwarded_bytes
    }

    /// Dropped packet share (0 when empty).
    pub fn packet_drop_rate(&self) -> f64 {
        if self.packets() == 0 {
            0.0
        } else {
            self.dropped_packets as f64 / self.packets() as f64
        }
    }

    /// Dropped byte share (0 when empty).
    pub fn byte_drop_rate(&self) -> f64 {
        if self.bytes() == 0 {
            0.0
        } else {
            self.dropped_bytes as f64 / self.bytes() as f64
        }
    }
}

/// The full acceptance analysis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AcceptanceAnalysis {
    /// Per prefix length: aggregate tallies over all active blackholes of
    /// that length (Fig. 5).
    pub by_length: BTreeMap<u8, DropTally>,
    /// Per blackholed prefix: its tally (basis of Fig. 6; only prefixes with
    /// at least `min_samples` samples are used in CDFs).
    pub by_prefix: BTreeMap<Prefix, DropTally>,
    /// Per handover (source) member AS: tally of its traffic towards active
    /// /32 blackholes (Figs. 7–8).
    pub by_source_as_32: BTreeMap<Asn, DropTally>,
    /// Samples that arrived during an active blackhole.
    pub samples_during_blackhole: u64,
}

/// Minimum samples for a prefix to enter a drop-rate CDF.
pub const MIN_SAMPLES_FOR_CDF: u64 = 5;

/// Attributes flows to active blackholes and aggregates the tallies.
///
/// Consumes the enrichment pass's precomputed columns: the covering
/// interval-holding prefix id, the `active` bitset (was that prefix's
/// blackhole announced at the sample's timestamp?), the `dropped` bitset
/// and the interned ingress ASN — no per-sample LPM walk or MAC hash
/// remains. Blackhole-active samples are a small minority of the corpus,
/// so the scan iterates the set bits of the `active` words directly
/// (one `trailing_zeros` per hit, one test per word of misses) instead of
/// visiting every row. It tallies into dense arrays indexed by
/// interval-holding prefix id and by ingress id, and folds them into the
/// three maps once; the tallies are integer sums, so the result does not
/// depend on the chunk capacity.
pub fn analyze_acceptance(cols: &ColumnarFlows) -> AcceptanceAnalysis {
    let mut by_pid = vec![DropTally::default(); cols.active_prefix_count()];
    let mut by_ingress_32 = vec![DropTally::default(); cols.asn_count()];
    for c in cols.chunks() {
        let pids = c.active_prefix_ids();
        let lens = c.packet_lens();
        let ingress = c.ingress_ids();
        for (w, (&active, &dropped_word)) in
            c.active_words().iter().zip(c.dropped_words()).enumerate()
        {
            let mut bits = active;
            while bits != 0 {
                let r = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let dropped = dropped_word >> (r & 63) & 1 == 1;
                by_pid[pids[r] as usize].add(dropped, lens[r]);
                if ingress[r] != NONE && cols.active_prefix_lookup(pids[r]).is_host() {
                    by_ingress_32[ingress[r] as usize].add(dropped, lens[r]);
                }
            }
        }
    }

    let mut out = AcceptanceAnalysis::default();
    for (pid, t) in by_pid.iter().enumerate().filter(|(_, t)| t.packets() > 0) {
        let prefix = cols.active_prefix_lookup(pid as u32);
        out.samples_during_blackhole += t.packets();
        out.by_length.entry(prefix.len()).or_default().absorb(t);
        out.by_prefix.insert(prefix, *t);
    }
    for (id, t) in by_ingress_32
        .iter()
        .enumerate()
        .filter(|(_, t)| t.packets() > 0)
    {
        let source = cols
            .asn_lookup(id as u32)
            .expect("ingress ids are interned");
        out.by_source_as_32.insert(source, *t);
    }
    out
}

impl AcceptanceAnalysis {
    /// Average packet drop rate for one prefix length (Fig. 5's dashed line).
    pub fn drop_rate_for_length(&self, len: u8) -> Option<(f64, f64)> {
        self.by_length
            .get(&len)
            .map(|t| (t.packet_drop_rate(), t.byte_drop_rate()))
    }

    /// The traffic share (packets) of each prefix length among all
    /// blackhole-active traffic (Fig. 5's opacities).
    pub fn traffic_share_by_length(&self) -> BTreeMap<u8, f64> {
        let total: u64 = self.by_length.values().map(|t| t.packets()).sum();
        self.by_length
            .iter()
            .map(|(len, t)| {
                (
                    *len,
                    if total == 0 {
                        0.0
                    } else {
                        t.packets() as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// The CDF of per-prefix packet drop rates for one prefix length
    /// (Fig. 6), over prefixes with at least [`MIN_SAMPLES_FOR_CDF`] samples.
    pub fn drop_rate_cdf(&self, len: u8) -> Ecdf {
        self.by_prefix
            .iter()
            .filter(|(p, t)| p.len() == len && t.packets() >= MIN_SAMPLES_FOR_CDF)
            .map(|(_, t)| t.packet_drop_rate())
            .collect()
    }

    /// The top `k` source ASes by total traffic towards /32 blackholes,
    /// heaviest first (Fig. 7).
    pub fn top_sources_32(&self, k: usize) -> Vec<(Asn, DropTally)> {
        top_k_by(
            self.by_source_as_32.iter().map(|(a, t)| (*a, *t)),
            k,
            |(_, t)| t.packets() as f64,
        )
    }

    /// Buckets the top-`k` source ASes by their reaction (Fig. 7's reading):
    /// `(dropping ≥99%, forwarding ≥99%, inconsistent)`.
    pub fn source_reaction_buckets(&self, k: usize) -> (usize, usize, usize) {
        let mut dropping = 0;
        let mut forwarding = 0;
        let mut inconsistent = 0;
        for (_, t) in self.top_sources_32(k) {
            let r = t.packet_drop_rate();
            if r >= 0.99 {
                dropping += 1;
            } else if r <= 0.01 {
                forwarding += 1;
            } else {
                inconsistent += 1;
            }
        }
        (dropping, forwarding, inconsistent)
    }

    /// Org-type histogram of the top-`k` source ASes (Fig. 8).
    pub fn top_source_org_types(&self, k: usize, registry: &Registry) -> BTreeMap<OrgType, usize> {
        let asns: Vec<Asn> = self.top_sources_32(k).into_iter().map(|(a, _)| a).collect();
        registry.type_histogram(asns.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, MemberInfo};
    use crate::index::{MacResolver, OriginTable};
    use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
    use rtbh_fabric::{FlowLog, FlowSample};
    use rtbh_net::{Community, Interval, Ipv4Addr, MacAddr, Protocol, TimeDelta, Timestamp};

    fn ts(min: i64) -> Timestamp {
        Timestamp::EPOCH + TimeDelta::minutes(min)
    }

    /// Enriches with the test resolver, then runs the columnar kernel —
    /// the same call chain the pipeline makes.
    fn analyze(updates: &UpdateLog, flows: &FlowLog) -> AcceptanceAnalysis {
        let built = ColumnarFlows::build_enriched_with_capacity(
            updates,
            flows,
            &resolver(),
            &OriginTable::build(&[]),
            ts(1000),
            1,
            0,
        );
        analyze_acceptance(&built.columns)
    }

    fn bh(min: i64, prefix: &str, kind: UpdateKind) -> BgpUpdate {
        BgpUpdate {
            at: ts(min),
            peer: Asn(1),
            prefix: prefix.parse().unwrap(),
            origin: Asn(1),
            kind,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    fn sample(min: i64, src_mac: u32, dst: &str, dropped: bool) -> FlowSample {
        FlowSample {
            at: ts(min),
            src_mac: MacAddr::from_id(src_mac),
            dst_mac: if dropped {
                MacAddr::BLACKHOLE
            } else {
                MacAddr::from_id(99)
            },
            src_ip: "8.8.8.8".parse().unwrap(),
            dst_ip: dst.parse().unwrap(),
            protocol: Protocol::Udp,
            src_port: 389,
            dst_port: 7777,
            packet_len: 1000,
            fragment: false,
        }
    }

    fn resolver() -> MacResolver {
        let corpus = Corpus {
            period: Interval::new(ts(0), ts(1000)),
            sampling_rate: 10_000,
            route_server_asn: Asn(6695),
            updates: rtbh_bgp::UpdateLog::new(),
            flows: FlowLog::new(),
            members: vec![
                MemberInfo {
                    asn: Asn(201),
                    macs: vec![MacAddr::from_id(1)],
                },
                MemberInfo {
                    asn: Asn(202),
                    macs: vec![MacAddr::from_id(2)],
                },
                MemberInfo {
                    asn: Asn(203),
                    macs: vec![MacAddr::from_id(99)],
                },
            ],
            registry: Registry::new(),
            internal_macs: Vec::new(),
            routes: Vec::new(),
            caches: Default::default(),
        };
        MacResolver::build(&corpus)
    }

    #[test]
    fn tallies_split_dropped_and_forwarded() {
        let updates = rtbh_bgp::UpdateLog::from_updates(vec![
            bh(0, "10.0.0.7/32", UpdateKind::Announce),
            bh(100, "10.0.0.7/32", UpdateKind::Withdraw),
        ]);
        let flows = FlowLog::from_samples(vec![
            sample(10, 1, "10.0.0.7", true),
            sample(11, 1, "10.0.0.7", true),
            sample(12, 2, "10.0.0.7", false),
            sample(200, 2, "10.0.0.7", false), // outside interval → ignored
        ]);
        let a = analyze(&updates, &flows);
        assert_eq!(a.samples_during_blackhole, 3);
        let t = a.by_length[&32];
        assert_eq!(t.dropped_packets, 2);
        assert_eq!(t.forwarded_packets, 1);
        assert!((t.packet_drop_rate() - 2.0 / 3.0).abs() < 1e-12);
        // Per source AS: 201 drops all, 202 forwards all.
        assert!((a.by_source_as_32[&Asn(201)].packet_drop_rate() - 1.0).abs() < 1e-12);
        assert_eq!(a.by_source_as_32[&Asn(202)].packet_drop_rate(), 0.0);
    }

    #[test]
    fn length_attribution_uses_longest_match() {
        let updates = rtbh_bgp::UpdateLog::from_updates(vec![
            bh(0, "10.0.0.0/24", UpdateKind::Announce),
            bh(0, "10.0.0.7/32", UpdateKind::Announce),
        ]);
        let flows = FlowLog::from_samples(vec![
            sample(10, 1, "10.0.0.7", true), // /32
            sample(10, 1, "10.0.0.9", true), // /24
        ]);
        let a = analyze(&updates, &flows);
        assert_eq!(a.by_length[&32].packets(), 1);
        assert_eq!(a.by_length[&24].packets(), 1);
        let shares = a.traffic_share_by_length();
        assert!((shares[&32] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_respects_min_samples() {
        let updates = rtbh_bgp::UpdateLog::from_updates(vec![
            bh(0, "10.0.0.7/32", UpdateKind::Announce),
            bh(0, "10.0.1.7/32", UpdateKind::Announce),
        ]);
        // 10.0.0.7 gets 6 samples (enters CDF), 10.0.1.7 only 2 (excluded).
        let mut samples: Vec<FlowSample> = (0..6)
            .map(|i| sample(10 + i, 1, "10.0.0.7", i % 2 == 0))
            .collect();
        samples.extend((0..2).map(|i| sample(10 + i, 1, "10.0.1.7", true)));
        let flows = FlowLog::from_samples(samples);
        let a = analyze(&updates, &flows);
        let cdf = a.drop_rate_cdf(32);
        assert_eq!(cdf.len(), 1);
        assert!((cdf.median().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reaction_buckets() {
        let updates =
            rtbh_bgp::UpdateLog::from_updates(vec![bh(0, "10.0.0.7/32", UpdateKind::Announce)]);
        let mut samples = Vec::new();
        for i in 0..20 {
            samples.push(sample(1 + i, 1, "10.0.0.7", true)); // AS201 drops
            samples.push(sample(1 + i, 2, "10.0.0.7", i % 2 == 0)); // AS202 mixed
        }
        let flows = FlowLog::from_samples(samples);
        let a = analyze(&updates, &flows);
        let (dropping, forwarding, inconsistent) = a.source_reaction_buckets(100);
        assert_eq!((dropping, forwarding, inconsistent), (1, 0, 1));
        let top = a.top_sources_32(1);
        assert_eq!(top.len(), 1);
    }
}

rtbh_json::impl_json! {
    struct DropTally { dropped_packets, forwarded_packets, dropped_bytes, forwarded_bytes }
}

rtbh_json::impl_json! {
    struct AcceptanceAnalysis {
        by_length, by_prefix, by_source_as_32, samples_during_blackhole,
    }
}
