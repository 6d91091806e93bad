//! Collateral damage of RTBH mitigation (paper §6.3, Fig. 18).
//!
//! An accepted blackhole drops *all* traffic to the victim — including
//! legitimate requests to a server's well-known services. For every detected
//! server, this module counts packets to its identified top services during
//! RTBH events: all such packets (what *should* have been delivered) and the
//! subset actually dropped. The paper deliberately reports absolute packet
//! counts, not shares, and treats the numbers as a worst-case upper bound
//! (application-layer attacks on the same ports are indistinguishable).

use std::collections::{BTreeMap, BTreeSet};

use rtbh_net::{Ipv4Addr, Service};
use rtbh_stats::Ecdf;

use crate::columns::ColumnarFlows;
use crate::events::RtbhEvent;
use crate::hosts::{HostAnalysis, HostClass};
use crate::index::SampleIndex;

/// Collateral damage within one event for one detected server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollateralRecord {
    /// The RTBH event.
    pub event_id: usize,
    /// The affected server.
    pub server: Ipv4Addr,
    /// Packets towards the server's top services during the event.
    pub to_top_ports: u64,
    /// The subset that was actually dropped.
    pub dropped_top_ports: u64,
}

/// The corpus-wide collateral analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CollateralAnalysis {
    /// One record per (event, server) pair with any top-port traffic.
    pub records: Vec<CollateralRecord>,
    /// Detected servers considered.
    pub servers_considered: usize,
}

impl CollateralAnalysis {
    /// Number of distinct events showing collateral traffic.
    pub fn events_with_collateral(&self) -> usize {
        let ids: BTreeSet<usize> = self.records.iter().map(|r| r.event_id).collect();
        ids.len()
    }

    /// Fig. 18's CDF over per-record packet counts: `(all, dropped-only)`.
    pub fn packet_cdfs(&self) -> (Ecdf, Ecdf) {
        let all: Ecdf = self.records.iter().map(|r| r.to_top_ports as f64).collect();
        let dropped: Ecdf = self
            .records
            .iter()
            .filter(|r| r.dropped_top_ports > 0)
            .map(|r| r.dropped_top_ports as f64)
            .collect();
        (all, dropped)
    }

    /// The worst single record by should-have-been-delivered packets.
    pub fn worst(&self) -> Option<&CollateralRecord> {
        self.records.iter().max_by_key(|r| r.to_top_ports)
    }
}

/// Quantifies collateral damage for all detected servers.
pub fn analyze_collateral(
    events: &[RtbhEvent],
    index: &SampleIndex,
    cols: &ColumnarFlows,
    hosts: &HostAnalysis,
) -> CollateralAnalysis {
    // Detected servers with their top-service sets, grouped by prefix so we
    // can find them from an event's prefix quickly.
    let mut servers_by_prefix: BTreeMap<rtbh_net::Prefix, Vec<(Ipv4Addr, BTreeSet<Service>)>> =
        BTreeMap::new();
    let mut servers_considered = 0;
    for h in hosts.of_class(HostClass::Server) {
        servers_considered += 1;
        servers_by_prefix
            .entry(h.prefix)
            .or_default()
            .push((h.addr, h.top_services.iter().copied().collect()));
    }

    let mut records = Vec::new();
    for event in events {
        let Some(servers) = servers_by_prefix.get(&event.prefix) else {
            continue;
        };
        let cover = event.coverage();
        let during = index.towards_within(event.prefix, cols, cover.start, cover.end);
        for (server, top) in servers {
            let mut to_top = 0u64;
            let mut dropped = 0u64;
            for &id in during {
                let i = id as usize;
                if cols.dst_ip(i) != *server || !cols.protocol(i).has_ports() {
                    continue;
                }
                if top.contains(&Service::new(cols.protocol(i), cols.dst_port(i))) {
                    to_top += 1;
                    if cols.is_dropped(i) {
                        dropped += 1;
                    }
                }
            }
            if to_top > 0 {
                records.push(CollateralRecord {
                    event_id: event.id,
                    server: *server,
                    to_top_ports: to_top,
                    dropped_top_ports: dropped,
                });
            }
        }
    }
    CollateralAnalysis {
        records,
        servers_considered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(event_id: usize, total: u64, dropped: u64) -> CollateralRecord {
        CollateralRecord {
            event_id,
            server: "10.0.0.7".parse().unwrap(),
            to_top_ports: total,
            dropped_top_ports: dropped,
        }
    }

    #[test]
    fn cdfs_split_all_and_dropped() {
        let analysis = CollateralAnalysis {
            records: vec![record(0, 100, 60), record(1, 10, 0), record(1, 5, 5)],
            servers_considered: 2,
        };
        let (all, dropped) = analysis.packet_cdfs();
        assert_eq!(all.len(), 3);
        assert_eq!(dropped.len(), 2);
        assert_eq!(analysis.events_with_collateral(), 2);
        assert_eq!(analysis.worst().unwrap().to_top_ports, 100);
    }

    #[test]
    fn empty_analysis_is_safe() {
        let analysis = CollateralAnalysis {
            records: vec![],
            servers_considered: 0,
        };
        assert_eq!(analysis.events_with_collateral(), 0);
        assert!(analysis.worst().is_none());
    }
}

rtbh_json::impl_json! {
    struct CollateralRecord { event_id, server, to_top_ports, dropped_top_ports }
}

rtbh_json::impl_json! { struct CollateralAnalysis { records, servers_considered } }
