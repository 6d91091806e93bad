//! During-event traffic: protocol mix and amplification vectors
//! (paper §5.4, Table 3).

use std::collections::BTreeMap;

use rtbh_net::{AmplificationProtocol, Protocol, TimeDelta, AMPLIFICATION_PROTOCOLS};

use crate::columns::ColumnarFlows;
use crate::events::RtbhEvent;
use crate::index::SampleIndex;
use crate::preevent::{PreClass, PreEventAnalysis};

/// The during-event traffic summary of one event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventTraffic {
    /// The event's id.
    pub event_id: usize,
    /// Samples captured during the event's coverage (gaps included).
    pub packets: u64,
    /// UDP / TCP / ICMP / other packet counts.
    pub by_protocol: [u64; 4],
    /// Packets matched per amplification protocol (source-port match or
    /// fragment).
    pub amplification: BTreeMap<AmplificationProtocol, u64>,
    /// True if the event had a preceding anomaly within the horizon.
    pub preceded_by_anomaly: bool,
}

impl EventTraffic {
    /// Distinct amplification protocols carrying a non-negligible share of
    /// the event's packets (at least `max(2, 3%)` — small counts are
    /// sampling noise).
    pub fn distinct_amplification_protocols(&self) -> usize {
        let floor = ((self.packets as f64 * 0.03).ceil() as u64).max(2);
        self.amplification.values().filter(|&&c| c >= floor).count()
    }
}

/// The corpus-wide during-event analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolAnalysis {
    /// One entry per event, id order.
    pub per_event: Vec<EventTraffic>,
}

impl ProtocolAnalysis {
    /// Share of all events with any sampled traffic during the event
    /// (the paper: 29%).
    pub fn events_with_data_share(&self) -> f64 {
        let n = self.per_event.len().max(1) as f64;
        self.per_event.iter().filter(|e| e.packets > 0).count() as f64 / n
    }

    /// Share of all events having both during-event data **and** a preceding
    /// anomaly (the paper: 18%).
    pub fn data_and_anomaly_share(&self) -> f64 {
        let n = self.per_event.len().max(1) as f64;
        self.per_event
            .iter()
            .filter(|e| e.packets > 0 && e.preceded_by_anomaly)
            .count() as f64
            / n
    }

    /// Among anomaly-preceded events, the share with **no** during-event
    /// data (the paper: one third — short attacks or remote mitigation).
    pub fn anomaly_but_no_data_share(&self) -> f64 {
        let anomaly = self
            .per_event
            .iter()
            .filter(|e| e.preceded_by_anomaly)
            .count();
        if anomaly == 0 {
            return 0.0;
        }
        self.per_event
            .iter()
            .filter(|e| e.preceded_by_anomaly && e.packets == 0)
            .count() as f64
            / anomaly as f64
    }

    /// The protocol mix over anomaly-preceded events with data
    /// (`[UDP, TCP, ICMP, other]` shares; paper: 99.5/0.3/0.1/0.1%).
    pub fn anomaly_protocol_mix(&self) -> [f64; 4] {
        let mut totals = [0u64; 4];
        for e in self
            .per_event
            .iter()
            .filter(|e| e.preceded_by_anomaly && e.packets > 0)
        {
            for (i, c) in e.by_protocol.iter().enumerate() {
                totals[i] += c;
            }
        }
        let sum: u64 = totals.iter().sum();
        if sum == 0 {
            return [0.0; 4];
        }
        [
            totals[0] as f64 / sum as f64,
            totals[1] as f64 / sum as f64,
            totals[2] as f64 / sum as f64,
            totals[3] as f64 / sum as f64,
        ]
    }

    /// Table 3: distribution of distinct amplification protocols per
    /// anomaly-preceded event with data — `counts[k]` = share of such events
    /// with exactly `k` protocols (k capped at 5). Events with fewer than 5
    /// samples carry too little signal to type and are skipped (the paper's
    /// per-event analysis implicitly has this property: its events carry
    /// hundreds of samples).
    pub fn amplification_protocol_table(&self) -> [f64; 6] {
        let events: Vec<&EventTraffic> = self
            .per_event
            .iter()
            .filter(|e| e.preceded_by_anomaly && e.packets >= 5)
            .collect();
        let n = events.len().max(1) as f64;
        let mut shares = [0.0; 6];
        for e in events {
            let k = e.distinct_amplification_protocols().min(5);
            shares[k] += 1.0 / n;
        }
        shares
    }

    /// The most common amplification protocols across anomaly events,
    /// by number of events in which they dominate (≥3% share).
    pub fn top_amplification_protocols(&self) -> Vec<(AmplificationProtocol, usize)> {
        let mut by_proto: BTreeMap<AmplificationProtocol, usize> = BTreeMap::new();
        for e in self
            .per_event
            .iter()
            .filter(|e| e.preceded_by_anomaly && e.packets > 0)
        {
            let floor = ((e.packets as f64 * 0.03).ceil() as u64).max(2);
            for (p, c) in &e.amplification {
                if *c >= floor {
                    *by_proto.entry(*p).or_insert(0) += 1;
                }
            }
        }
        let mut out: Vec<_> = by_proto.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

fn classify_protocol(p: Protocol) -> usize {
    match p {
        Protocol::Udp => 0,
        Protocol::Tcp => 1,
        Protocol::Icmp => 2,
        Protocol::Other(_) => 3,
    }
}

/// Aggregates during-event traffic for every event.
///
/// Each during-event row's chunk is located once; its protocol and its
/// amplification entry ([`AmplificationProtocol::classify`], a `match` on
/// the source port) are tallied into dense per-event arrays, and only the
/// non-zero amplification counts become map entries.
pub fn analyze_event_traffic(
    events: &[RtbhEvent],
    index: &SampleIndex,
    cols: &ColumnarFlows,
    preevents: &PreEventAnalysis,
) -> ProtocolAnalysis {
    let horizon = preevents.config.anomaly_horizon;
    let per_event = events
        .iter()
        .map(|event| {
            let preceded_by_anomaly = preevents
                .per_event
                .get(event.id)
                .is_some_and(|r| r.class == PreClass::DataAnomaly && r.anomaly_within(horizon));
            let cover = event.coverage();
            let during = index.towards_within(event.prefix, cols, cover.start, cover.end);
            let mut by_protocol = [0u64; 4];
            let mut amplification = [0u64; AMPLIFICATION_PROTOCOLS.len()];
            for &id in during {
                let (c, r) = cols.loc(id as usize);
                let protocol = Protocol::from_number(c.protocols()[r]);
                by_protocol[classify_protocol(protocol)] += 1;
                if let Some(p) =
                    AmplificationProtocol::classify(protocol, c.src_ports()[r], c.fragment(r))
                {
                    amplification[p as usize] += 1;
                }
            }
            EventTraffic {
                event_id: event.id,
                packets: during.len() as u64,
                by_protocol,
                amplification: AMPLIFICATION_PROTOCOLS
                    .iter()
                    .zip(amplification)
                    .filter(|&(_, count)| count > 0)
                    .map(|(&p, count)| (p, count))
                    .collect(),
                preceded_by_anomaly,
            }
        })
        .collect();
    ProtocolAnalysis { per_event }
}

/// A convenience horizon accessor used by downstream modules.
pub fn anomaly_horizon(preevents: &PreEventAnalysis) -> TimeDelta {
    preevents.config.anomaly_horizon
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(packets: u64, amp: &[(AmplificationProtocol, u64)], anomaly: bool) -> EventTraffic {
        EventTraffic {
            event_id: 0,
            packets,
            by_protocol: [packets, 0, 0, 0],
            amplification: amp.iter().copied().collect(),
            preceded_by_anomaly: anomaly,
        }
    }

    #[test]
    fn distinct_protocols_ignore_noise() {
        let e = traffic(
            1000,
            &[
                (AmplificationProtocol::Cldap, 800),
                (AmplificationProtocol::Ntp, 150),
                (AmplificationProtocol::Dns, 1), // sampling noise
            ],
            true,
        );
        assert_eq!(e.distinct_amplification_protocols(), 2);
    }

    #[test]
    fn table3_shares() {
        let analysis = ProtocolAnalysis {
            per_event: vec![
                traffic(100, &[(AmplificationProtocol::Cldap, 95)], true),
                traffic(
                    100,
                    &[
                        (AmplificationProtocol::Cldap, 60),
                        (AmplificationProtocol::Ntp, 35),
                    ],
                    true,
                ),
                traffic(100, &[], true),  // 0 protocols
                traffic(100, &[], false), // no anomaly → excluded
                traffic(0, &[], true),    // no data → excluded
            ],
        };
        let t = analysis.amplification_protocol_table();
        assert!((t[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((t[1] - 1.0 / 3.0).abs() < 1e-9);
        assert!((t[2] - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(t[3], 0.0);
    }

    #[test]
    fn shares_and_mix() {
        let mut udp_heavy = traffic(995, &[], true);
        udp_heavy.by_protocol = [990, 3, 1, 1];
        let analysis = ProtocolAnalysis {
            per_event: vec![udp_heavy, traffic(0, &[], true), traffic(10, &[], false)],
        };
        assert!((analysis.events_with_data_share() - 2.0 / 3.0).abs() < 1e-9);
        assert!((analysis.data_and_anomaly_share() - 1.0 / 3.0).abs() < 1e-9);
        assert!((analysis.anomaly_but_no_data_share() - 0.5).abs() < 1e-9);
        let mix = analysis.anomaly_protocol_mix();
        assert!(mix[0] > 0.99);
        assert!((mix.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_protocols_sorted_by_event_count() {
        let analysis = ProtocolAnalysis {
            per_event: vec![
                traffic(100, &[(AmplificationProtocol::Cldap, 90)], true),
                traffic(
                    100,
                    &[
                        (AmplificationProtocol::Cldap, 50),
                        (AmplificationProtocol::Ntp, 40),
                    ],
                    true,
                ),
                traffic(100, &[(AmplificationProtocol::Ntp, 90)], true),
                traffic(100, &[(AmplificationProtocol::Cldap, 90)], true),
            ],
        };
        let top = analysis.top_amplification_protocols();
        assert_eq!(top[0], (AmplificationProtocol::Cldap, 3));
        assert_eq!(top[1], (AmplificationProtocol::Ntp, 2));
    }
}

rtbh_json::impl_json! {
    struct EventTraffic {
        event_id, packets, by_protocol, amplification, preceded_by_anomaly,
    }
}

rtbh_json::impl_json! { struct ProtocolAnalysis { per_event } }
