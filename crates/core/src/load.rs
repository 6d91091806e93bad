//! RTBH signaling load (paper §3.2, Fig. 3) and drop provenance (§3.1).

use std::collections::BTreeSet;

use rtbh_bgp::{active_count_series, blackhole_intervals, UpdateLog};
use rtbh_net::{Interval, TimeDelta, Timestamp};

use crate::columns::ColumnarFlows;

/// The control-plane load analysis (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadAnalysis {
    /// `(minute, active parallel RTBH prefixes)` series.
    pub active_series: Vec<(Timestamp, usize)>,
    /// `(minute, blackhole BGP messages)` series.
    pub message_series: Vec<(Timestamp, usize)>,
    /// Mean simultaneously active blackholes.
    pub mean_active: f64,
    /// Peak simultaneously active blackholes.
    pub peak_active: usize,
    /// Peak messages in one minute.
    pub peak_messages_per_minute: usize,
    /// Total blackhole-related messages.
    pub total_messages: usize,
    /// Distinct peers that announced blackholes.
    pub announcing_peers: usize,
    /// Distinct origin ASes blackholed.
    pub origin_asns: usize,
}

/// Computes the signaling-load series on a fixed grid (the paper uses one
/// minute).
pub fn analyze_load(updates: &UpdateLog, period: Interval, step: TimeDelta) -> LoadAnalysis {
    let intervals = blackhole_intervals(updates.updates().iter(), period.end);
    let active_series = active_count_series(&intervals, period.start, period.end, step);
    let mean_active = if active_series.is_empty() {
        0.0
    } else {
        active_series.iter().map(|(_, c)| *c as f64).sum::<f64>() / active_series.len() as f64
    };
    let peak_active = active_series.iter().map(|(_, c)| *c).max().unwrap_or(0);

    // Message counts per grid slot.
    let mut message_series: Vec<(Timestamp, usize)> = Vec::new();
    let mut t = period.start;
    let blackholes: Vec<Timestamp> = updates.blackhole_related().map(|u| u.at).collect();
    let mut cursor = 0usize;
    while t < period.end {
        let next = t + step;
        let start_idx = cursor;
        while cursor < blackholes.len() && blackholes[cursor] < next {
            cursor += 1;
        }
        message_series.push((t, cursor - start_idx));
        t = next;
    }
    let peak_messages_per_minute = message_series.iter().map(|(_, c)| *c).max().unwrap_or(0);

    let announcing_peers: BTreeSet<_> = updates
        .blackholes()
        .filter(|u| u.is_announce())
        .map(|u| u.peer)
        .collect();
    let origin_asns: BTreeSet<_> = updates
        .blackholes()
        .filter(|u| u.is_announce())
        .map(|u| u.origin)
        .collect();

    LoadAnalysis {
        active_series,
        message_series,
        mean_active,
        peak_active,
        peak_messages_per_minute,
        total_messages: updates.blackhole_related().count(),
        announcing_peers: announcing_peers.len(),
        origin_asns: origin_asns.len(),
    }
}

/// Drop provenance (§3.1): how much dropped traffic is explained by
/// route-server-signaled blackholes (the paper: 95% of dropped bytes; the
/// rest stems from bilateral RTBH invisible to the route server).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropProvenance {
    /// All dropped samples.
    pub dropped_packets: u64,
    /// All dropped bytes.
    pub dropped_bytes: u64,
    /// Dropped samples inside a route-server blackhole interval.
    pub explained_packets: u64,
    /// Dropped bytes inside a route-server blackhole interval.
    pub explained_bytes: u64,
}

impl DropProvenance {
    /// Byte share explained by the route server.
    pub fn byte_share(&self) -> f64 {
        if self.dropped_bytes == 0 {
            0.0
        } else {
            self.explained_bytes as f64 / self.dropped_bytes as f64
        }
    }
}

/// Attributes each dropped sample to route-server blackholes (or not).
/// The activity check was already done by the enrichment pass (the sealed
/// chunks' `active` bitset), so this is a word-at-a-time bitset scan:
/// packet counts are popcounts over the `dropped` words (and
/// `dropped & active` for the explained share), and only the words with
/// set bits are walked for the byte sums. The totals are integer sums, so
/// they do not depend on the chunk capacity.
pub fn drop_provenance(cols: &ColumnarFlows) -> DropProvenance {
    let mut p = DropProvenance {
        dropped_packets: 0,
        dropped_bytes: 0,
        explained_packets: 0,
        explained_bytes: 0,
    };
    for c in cols.chunks() {
        let lens = c.packet_lens();
        for (w, (&dropped, &active)) in c.dropped_words().iter().zip(c.active_words()).enumerate() {
            // Tail bits are zero by the chunk ABI, so whole-word
            // popcounts are exact packet counts.
            p.dropped_packets += u64::from(dropped.count_ones());
            p.explained_packets += u64::from((dropped & active).count_ones());
            let mut bits = dropped;
            while bits != 0 {
                let r = (w << 6) | bits.trailing_zeros() as usize;
                let bytes = u64::from(lens[r]);
                p.dropped_bytes += bytes;
                if active >> (r & 63) & 1 == 1 {
                    p.explained_bytes += bytes;
                }
                bits &= bits - 1;
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{MacResolver, OriginTable};
    use rtbh_bgp::{BgpUpdate, UpdateKind};
    use rtbh_fabric::{FlowLog, FlowSample};
    use rtbh_net::{Asn, Community, Ipv4Addr, MacAddr, Protocol};

    fn provenance_of(updates: &UpdateLog, flows: &FlowLog, end: Timestamp) -> DropProvenance {
        let resolver = MacResolver::from_map(Default::default());
        let origins = OriginTable::build(&[]);
        let built = ColumnarFlows::build_enriched_with_capacity(
            updates, flows, &resolver, &origins, end, 1, 0,
        );
        drop_provenance(&built.columns)
    }

    fn ts(min: i64) -> Timestamp {
        Timestamp::EPOCH + TimeDelta::minutes(min)
    }

    fn update(min: i64, peer: u32, prefix: &str, kind: UpdateKind) -> BgpUpdate {
        BgpUpdate {
            at: ts(min),
            peer: Asn(peer),
            prefix: prefix.parse().unwrap(),
            origin: Asn(peer + 1000),
            kind,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    #[test]
    fn load_series_counts_active_and_messages() {
        let log = UpdateLog::from_updates(vec![
            update(0, 1, "10.0.0.1/32", UpdateKind::Announce),
            update(2, 2, "10.0.0.2/32", UpdateKind::Announce),
            update(3, 1, "10.0.0.1/32", UpdateKind::Withdraw),
            update(5, 2, "10.0.0.2/32", UpdateKind::Withdraw),
        ]);
        let period = Interval::new(ts(0), ts(6));
        let load = analyze_load(&log, period, TimeDelta::minutes(1));
        let actives: Vec<usize> = load.active_series.iter().map(|(_, c)| *c).collect();
        assert_eq!(actives, vec![1, 1, 2, 1, 1, 0]);
        assert_eq!(load.peak_active, 2);
        assert_eq!(load.total_messages, 4);
        assert_eq!(load.announcing_peers, 2);
        assert_eq!(load.origin_asns, 2);
        let msgs: usize = load.message_series.iter().map(|(_, c)| *c).sum();
        assert_eq!(msgs, 4);
        assert_eq!(load.peak_messages_per_minute, 1);
    }

    fn dropped(min: i64, dst: &str, len: u16) -> FlowSample {
        FlowSample {
            at: ts(min),
            src_mac: MacAddr::from_id(1),
            dst_mac: MacAddr::BLACKHOLE,
            src_ip: "8.8.8.8".parse().unwrap(),
            dst_ip: dst.parse().unwrap(),
            protocol: Protocol::Udp,
            src_port: 53,
            dst_port: 7777,
            packet_len: len,
            fragment: false,
        }
    }

    #[test]
    fn provenance_splits_explained_and_not() {
        let log = UpdateLog::from_updates(vec![
            update(0, 1, "10.0.0.1/32", UpdateKind::Announce),
            update(10, 1, "10.0.0.1/32", UpdateKind::Withdraw),
        ]);
        let flows = FlowLog::from_samples(vec![
            dropped(5, "10.0.0.1", 1000), // explained
            dropped(15, "10.0.0.1", 500), // after withdraw → bilateral
            dropped(5, "99.0.0.1", 500),  // never announced → bilateral
        ]);
        let prov = provenance_of(&log, &flows, ts(100));
        assert_eq!(prov.dropped_packets, 3);
        assert_eq!(prov.explained_packets, 1);
        assert_eq!(prov.dropped_bytes, 2000);
        assert_eq!(prov.explained_bytes, 1000);
        assert!((prov.byte_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let load = analyze_load(
            &UpdateLog::new(),
            Interval::new(ts(0), ts(3)),
            TimeDelta::minutes(1),
        );
        assert_eq!(load.peak_active, 0);
        assert_eq!(load.mean_active, 0.0);
        let prov = provenance_of(&UpdateLog::new(), &FlowLog::new(), ts(10));
        assert_eq!(prov.byte_share(), 0.0);
    }
}

rtbh_json::impl_json! {
    struct LoadAnalysis {
        active_series, message_series, mean_active, peak_active,
        peak_messages_per_minute, total_messages, announcing_peers, origin_asns,
    }
}

rtbh_json::impl_json! {
    struct DropProvenance { dropped_packets, dropped_bytes, explained_packets, explained_bytes }
}
