//! The potential of fine-grained filtering (paper §5.5, Figs. 14–15).
//!
//! RTBH drops *everything* towards the victim. §5.5 asks: how much of the
//! attack traffic could a port-based ACL on the known UDP-amplification
//! catalogue have removed instead? (Answer in the paper: 90% of
//! anomaly-backed events could be served completely.) And who sends the
//! attack traffic — per *handover* AS (source MAC, spoofing-proof) and per
//! *origin* AS (source IP of unspoofed reflector traffic, via route data)?

use std::collections::{BTreeMap, BTreeSet};

use rtbh_net::{AmplificationProtocol, Asn, Protocol};
use rtbh_stats::Ecdf;

use crate::columns::ColumnarFlows;
use crate::events::RtbhEvent;
use crate::index::SampleIndex;
use crate::preevent::{PreClass, PreEventAnalysis};

/// Per-event fine-grained-filtering emulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterEmulation {
    /// The event's id.
    pub event_id: usize,
    /// During-event samples considered.
    pub packets: u64,
    /// Samples a port-ACL on the amplification catalogue would drop.
    pub filterable: u64,
    /// Handover ASes seen sending during the event.
    pub handover_ases: BTreeSet<Asn>,
    /// Origin ASes of the (unspoofed) sources, via the route table.
    pub origin_ases: BTreeSet<Asn>,
    /// Unique source addresses (amplifier count estimate).
    pub unique_sources: usize,
}

impl FilterEmulation {
    /// Share of the event's packets removable by the port ACL.
    pub fn filterable_share(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.filterable as f64 / self.packets as f64
        }
    }
}

/// The corpus-wide filtering analysis, restricted to anomaly-backed events
/// with during-event data (the paper's scope for Figs. 14–15).
#[derive(Debug, Clone, PartialEq)]
pub struct FilteringAnalysis {
    /// One entry per qualifying event.
    pub per_event: Vec<FilterEmulation>,
    /// Over all qualifying events: how many amplification events each
    /// handover AS participated in.
    pub handover_participation: BTreeMap<Asn, usize>,
    /// Likewise for origin ASes.
    pub origin_participation: BTreeMap<Asn, usize>,
}

impl FilteringAnalysis {
    /// Fig. 14: ECDF of per-event filterable shares.
    pub fn filterable_share_cdf(&self) -> Ecdf {
        self.per_event
            .iter()
            .map(|e| e.filterable_share())
            .collect()
    }

    /// Share of events fully (≥ `threshold`) covered by port filtering
    /// (the paper: 90% at complete coverage).
    pub fn fully_filterable_share(&self, threshold: f64) -> f64 {
        let n = self.per_event.len().max(1) as f64;
        self.per_event
            .iter()
            .filter(|e| e.filterable_share() >= threshold)
            .count() as f64
            / n
    }

    /// Fig. 15: ECDF of participation shares for handover or origin ASes.
    pub fn participation_cdf(&self, origin: bool) -> Ecdf {
        let events = self.per_event.len().max(1) as f64;
        let map = if origin {
            &self.origin_participation
        } else {
            &self.handover_participation
        };
        map.values().map(|&c| c as f64 / events).collect()
    }

    /// The top `k` participants, `(asn, share of events)`, heaviest first.
    pub fn top_participants(&self, origin: bool, k: usize) -> Vec<(Asn, f64)> {
        let events = self.per_event.len().max(1) as f64;
        let map = if origin {
            &self.origin_participation
        } else {
            &self.handover_participation
        };
        let mut all: Vec<(Asn, f64)> = map.iter().map(|(a, c)| (*a, *c as f64 / events)).collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Mean unique sources (amplifiers), handover-AS count and origin-AS
    /// count per event (the paper: 1,086 / 30 / 73 on average).
    pub fn mean_spread(&self) -> (f64, f64, f64) {
        let n = self.per_event.len().max(1) as f64;
        let srcs: usize = self.per_event.iter().map(|e| e.unique_sources).sum();
        let handovers: usize = self.per_event.iter().map(|e| e.handover_ases.len()).sum();
        let origins: usize = self.per_event.iter().map(|e| e.origin_ases.len()).sum();
        (srcs as f64 / n, handovers as f64 / n, origins as f64 / n)
    }
}

/// Sorts and deduplicates interned ASN ids (from an `ingress`/`origin`
/// column) in place and resolves them, [`NONE`](crate::columns::NONE)
/// aside, into a set.
fn asn_set(ids: &mut Vec<u32>, cols: &ColumnarFlows) -> BTreeSet<Asn> {
    ids.sort_unstable();
    ids.dedup();
    ids.iter().filter_map(|&id| cols.asn_lookup(id)).collect()
}

/// Emulates fine-grained filtering over all anomaly-backed events with data.
///
/// Each event's sources, handover AS ids and origin AS ids are gathered
/// into vectors reused across events, then sorted and deduplicated once
/// per event instead of inserted into trees sample by sample.
pub fn analyze_filtering(
    events: &[RtbhEvent],
    index: &SampleIndex,
    cols: &ColumnarFlows,
    preevents: &PreEventAnalysis,
) -> FilteringAnalysis {
    let mut per_event = Vec::new();
    let mut handover_participation: BTreeMap<Asn, usize> = BTreeMap::new();
    let mut origin_participation: BTreeMap<Asn, usize> = BTreeMap::new();
    let mut sources: Vec<u32> = Vec::new();
    let mut handovers: Vec<u32> = Vec::new();
    let mut origins: Vec<u32> = Vec::new();

    for event in events {
        let qualifies = preevents
            .per_event
            .get(event.id)
            .is_some_and(|r| r.class == PreClass::DataAnomaly);
        if !qualifies {
            continue;
        }
        let cover = event.coverage();
        let ids = index
            .prefix_id(event.prefix)
            .map(|id| index.towards(id))
            .unwrap_or(&[]);
        let during = cols.window_ids(ids, cover.start, cover.end);
        if during.len() < 5 {
            // Anomaly but (almost) nothing during the event — §5.4's third;
            // a handful of stray samples cannot support a filter verdict.
            continue;
        }
        sources.clear();
        handovers.clear();
        origins.clear();
        let mut filterable = 0u64;
        let mut udp_like = 0u64;
        for &id in during {
            let (c, r) = cols.loc(id as usize);
            let (protocol, fragment) = (Protocol::from_number(c.protocols()[r]), c.fragment(r));
            if AmplificationProtocol::classify(protocol, c.src_ports()[r], fragment).is_some() {
                filterable += 1;
            }
            if protocol == Protocol::Udp || fragment {
                udp_like += 1;
            }
            handovers.push(c.ingress_ids()[r]);
            origins.push(c.origin_ids()[r]);
            sources.push(c.src_ip_raw()[r]);
        }
        sources.sort_unstable();
        sources.dedup();
        let emu = FilterEmulation {
            event_id: event.id,
            packets: during.len() as u64,
            filterable,
            handover_ases: asn_set(&mut handovers, cols),
            origin_ases: asn_set(&mut origins, cols),
            unique_sources: sources.len(),
        };
        // Participation statistics are about UDP amplification attacks: only
        // count events whose during-traffic is predominantly UDP.
        if udp_like * 2 > emu.packets {
            for h in &emu.handover_ases {
                *handover_participation.entry(*h).or_insert(0) += 1;
            }
            for o in &emu.origin_ases {
                *origin_participation.entry(*o).or_insert(0) += 1;
            }
        }
        per_event.push(emu);
    }
    FilteringAnalysis {
        per_event,
        handover_participation,
        origin_participation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emu(id: usize, packets: u64, filterable: u64) -> FilterEmulation {
        FilterEmulation {
            event_id: id,
            packets,
            filterable,
            handover_ases: BTreeSet::new(),
            origin_ases: BTreeSet::new(),
            unique_sources: 0,
        }
    }

    #[test]
    fn filterable_share_cdf_and_full_share() {
        let analysis = FilteringAnalysis {
            per_event: vec![emu(0, 100, 100), emu(1, 100, 100), emu(2, 100, 40)],
            handover_participation: BTreeMap::new(),
            origin_participation: BTreeMap::new(),
        };
        assert!((analysis.fully_filterable_share(0.999) - 2.0 / 3.0).abs() < 1e-12);
        let cdf = analysis.filterable_share_cdf();
        assert_eq!(cdf.len(), 3);
        assert!((cdf.min().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn participation_and_top() {
        let mut handover_participation = BTreeMap::new();
        handover_participation.insert(Asn(1), 3usize);
        handover_participation.insert(Asn(2), 1);
        let analysis = FilteringAnalysis {
            per_event: vec![emu(0, 1, 1), emu(1, 1, 1), emu(2, 1, 1), emu(3, 1, 1)],
            handover_participation,
            origin_participation: BTreeMap::new(),
        };
        let top = analysis.top_participants(false, 1);
        assert_eq!(top, vec![(Asn(1), 0.75)]);
        let cdf = analysis.participation_cdf(false);
        assert_eq!(cdf.len(), 2);
        assert!((cdf.max().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mean_spread_averages() {
        let mut a = emu(0, 10, 10);
        a.unique_sources = 100;
        a.handover_ases = [Asn(1), Asn(2)].into_iter().collect();
        a.origin_ases = [Asn(10), Asn(11), Asn(12)].into_iter().collect();
        let mut b = emu(1, 10, 10);
        b.unique_sources = 300;
        b.handover_ases = [Asn(1)].into_iter().collect();
        b.origin_ases = [Asn(10)].into_iter().collect();
        let analysis = FilteringAnalysis {
            per_event: vec![a, b],
            handover_participation: BTreeMap::new(),
            origin_participation: BTreeMap::new(),
        };
        let (srcs, handovers, origins) = analysis.mean_spread();
        assert!((srcs - 200.0).abs() < 1e-12);
        assert!((handovers - 1.5).abs() < 1e-12);
        assert!((origins - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_analysis_is_safe() {
        let analysis = FilteringAnalysis {
            per_event: vec![],
            handover_participation: BTreeMap::new(),
            origin_participation: BTreeMap::new(),
        };
        assert_eq!(analysis.fully_filterable_share(0.999), 0.0);
        assert!(analysis.filterable_share_cdf().is_empty());
        assert_eq!(analysis.mean_spread(), (0.0, 0.0, 0.0));
    }
}

rtbh_json::impl_json! {
    struct FilterEmulation {
        event_id, packets, filterable, handover_ases, origin_ases, unique_sources,
    }
}

rtbh_json::impl_json! {
    struct FilteringAnalysis { per_event, handover_participation, origin_participation }
}
