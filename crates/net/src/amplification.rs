//! The catalogue of UDP amplification protocols from the paper's Table 3.
//!
//! The paper matches RTBH-event traffic against a fixed, a-priori known list
//! of UDP services that are routinely abused as reflectors/amplifiers.
//! Packets *from* one of these source ports towards a victim are the
//! signature of a reflection-amplification attack, and §5.5 shows that
//! filtering on this list alone would fully cover 90% of anomaly-backed RTBH
//! events.

use std::fmt;

use crate::ports::{Port, Protocol};

/// One known UDP amplification protocol (a row of the paper's Table 3
/// footnote).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AmplificationProtocol {
    /// Quote of the Day, UDP/17.
    Qotd,
    /// Character Generator, UDP/19.
    Chargen,
    /// Domain Name System, UDP/53.
    Dns,
    /// Trivial FTP, UDP/69.
    Tftp,
    /// Network Time Protocol (monlist abuse), UDP/123.
    Ntp,
    /// NetBIOS datagram service, UDP/138.
    Netbios,
    /// SNMPv2, UDP/161.
    Snmp,
    /// Connection-less LDAP, UDP/389 — the most common amplifier in the
    /// paper's data.
    Cldap,
    /// RIPv1, UDP/520.
    Rip,
    /// Simple Service Discovery Protocol, UDP/1900.
    Ssdp,
    /// Game-server protocol (EA/Origin), UDP/3659.
    Game3659,
    /// STUN / game traffic, UDP/3478.
    Stun,
    /// Session Initiation Protocol, UDP/5060.
    Sip,
    /// BitTorrent (DHT/uTP), UDP/6881.
    Bittorrent,
    /// Memcached, UDP/11211 — source of the record 1.7 Tbps attacks.
    Memcached,
    /// Game-server protocol (Source engine), UDP/27005.
    Game27005,
    /// Game-server protocol (CoD), UDP/28960.
    Game28960,
    /// Non-initial IP fragments: no transport header, reported as port 0.
    /// Large amplification responses fragment, so floods of fragments are
    /// themselves an attack trace.
    Fragmentation,
}

rtbh_json::impl_json! {
    enum AmplificationProtocol {
        Qotd, Chargen, Dns, Tftp, Ntp, Netbios, Snmp, Cldap, Rip, Ssdp,
        Game3659, Stun, Sip, Bittorrent, Memcached, Game27005, Game28960,
        Fragmentation,
    }
}

impl rtbh_json::JsonKey for AmplificationProtocol {
    fn to_key(&self) -> String {
        format!("{self:?}")
    }
    fn from_key(key: &str) -> Result<Self, rtbh_json::JsonError> {
        rtbh_json::FromJson::from_json(&rtbh_json::Json::Str(key.to_string()))
    }
}

impl AmplificationProtocol {
    /// The characteristic *source* port of reflected traffic, or 0 for
    /// [`AmplificationProtocol::Fragmentation`].
    pub const fn source_port(self) -> Port {
        use AmplificationProtocol::*;
        match self {
            Qotd => 17,
            Chargen => 19,
            Dns => 53,
            Tftp => 69,
            Ntp => 123,
            Netbios => 138,
            Snmp => 161,
            Cldap => 389,
            Rip => 520,
            Ssdp => 1900,
            Stun => 3478,
            Game3659 => 3659,
            Sip => 5060,
            Bittorrent => 6881,
            Memcached => 11211,
            Game27005 => 27005,
            Game28960 => 28960,
            Fragmentation => 0,
        }
    }

    /// A short human-readable name, matching the paper's footnote labels.
    pub const fn name(self) -> &'static str {
        use AmplificationProtocol::*;
        match self {
            Qotd => "QOTD",
            Chargen => "CharGEN",
            Dns => "DNS",
            Tftp => "TFTP",
            Ntp => "NTP",
            Netbios => "NetBIOS",
            Snmp => "SNMPv2",
            Cldap => "cLDAP",
            Rip => "RIPv1",
            Ssdp => "SSDP",
            Stun => "Game/3478",
            Game3659 => "Game/3659",
            Sip => "SIP",
            Bittorrent => "BitTorrent",
            Memcached => "Memcache",
            Game27005 => "Game/27005",
            Game28960 => "Game/28960",
            Fragmentation => "Fragmentation",
        }
    }

    /// A typical bandwidth amplification factor (response/request bytes),
    /// rounded from the AmpPot / US-CERT figures. Used by the traffic
    /// generator to size reflected packets; the analysis never reads it.
    pub const fn amplification_factor(self) -> f64 {
        use AmplificationProtocol::*;
        match self {
            Qotd => 140.0,
            Chargen => 358.0,
            Dns => 54.0,
            Tftp => 60.0,
            Ntp => 556.0,
            Netbios => 3.8,
            Snmp => 6.3,
            Cldap => 56.0,
            Rip => 131.0,
            Ssdp => 30.0,
            Stun => 2.2,
            Game3659 => 5.0,
            Sip => 9.0,
            Bittorrent => 3.8,
            Memcached => 10000.0,
            Game27005 => 5.0,
            Game28960 => 7.0,
            Fragmentation => 1.0,
        }
    }

    /// Classifies a sampled packet's (protocol, source port) against the
    /// catalogue. Fragments must be pre-marked by the capture pipeline with
    /// source port 0 and `fragment = true`.
    ///
    /// One `match` on the source port: the inverse of
    /// [`AmplificationProtocol::source_port`] over the UDP entries, pinned
    /// against a catalogue scan on every port by a unit test.
    #[inline]
    pub fn classify(protocol: Protocol, src_port: Port, fragment: bool) -> Option<Self> {
        if fragment {
            return Some(Self::Fragmentation);
        }
        if protocol != Protocol::Udp {
            return None;
        }
        Some(match src_port {
            17 => Qotd,
            19 => Chargen,
            53 => Dns,
            69 => Tftp,
            123 => Ntp,
            138 => Netbios,
            161 => Snmp,
            389 => Cldap,
            520 => Rip,
            1900 => Ssdp,
            3478 => Stun,
            3659 => Game3659,
            5060 => Sip,
            6881 => Bittorrent,
            11211 => Memcached,
            27005 => Game27005,
            28960 => Game28960,
            _ => return None,
        })
    }
}

impl fmt::Display for AmplificationProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if matches!(self, Self::Fragmentation) {
            write!(f, "Fragmentation")
        } else {
            write!(f, "{}/{}", self.name(), self.source_port())
        }
    }
}

use AmplificationProtocol::*;

const ALL: [AmplificationProtocol; 18] = [
    Qotd,
    Chargen,
    Dns,
    Tftp,
    Ntp,
    Netbios,
    Snmp,
    Cldap,
    Rip,
    Ssdp,
    Game3659,
    Stun,
    Sip,
    Bittorrent,
    Memcached,
    Game27005,
    Game28960,
    Fragmentation,
];

/// All 18 catalogue entries, in the paper's footnote order, which is also
/// declaration order: `AMPLIFICATION_PROTOCOLS[p as usize] == p`, so a
/// dense per-protocol array can be indexed by `p as usize`.
pub const AMPLIFICATION_PROTOCOLS: &[AmplificationProtocol] = &ALL;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_eighteen_distinct_entries() {
        assert_eq!(AMPLIFICATION_PROTOCOLS.len(), 18);
        let mut ports: Vec<Port> = AMPLIFICATION_PROTOCOLS
            .iter()
            .map(|p| p.source_port())
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 18, "ports must be unique");
        for (i, &p) in AMPLIFICATION_PROTOCOLS.iter().enumerate() {
            assert_eq!(p as usize, i, "{p} is out of declaration order");
        }
    }

    #[test]
    fn classify_udp_source_ports() {
        assert_eq!(
            AmplificationProtocol::classify(Protocol::Udp, 389, false),
            Some(AmplificationProtocol::Cldap)
        );
        assert_eq!(
            AmplificationProtocol::classify(Protocol::Udp, 123, false),
            Some(AmplificationProtocol::Ntp)
        );
        assert_eq!(
            AmplificationProtocol::classify(Protocol::Udp, 12345, false),
            None
        );
    }

    #[test]
    fn classify_ignores_tcp() {
        assert_eq!(
            AmplificationProtocol::classify(Protocol::Tcp, 53, false),
            None
        );
    }

    #[test]
    fn classify_fragments_regardless_of_protocol() {
        assert_eq!(
            AmplificationProtocol::classify(Protocol::Udp, 0, true),
            Some(AmplificationProtocol::Fragmentation)
        );
        assert_eq!(
            AmplificationProtocol::classify(Protocol::Other(17), 0, true),
            Some(AmplificationProtocol::Fragmentation)
        );
    }

    /// The port `match` against a scan of the catalogue, on every
    /// (protocol, source port, fragment) input the analysis can meet:
    /// all 65,536 ports under UDP, TCP, ICMP and `Other(n)`, with and
    /// without the fragment flag.
    #[test]
    fn classify_matches_a_catalogue_scan_on_every_port() {
        let scan = |protocol: Protocol, port: Port, fragment: bool| {
            if fragment {
                Some(Fragmentation)
            } else if protocol != Protocol::Udp {
                None
            } else {
                ALL.iter()
                    .copied()
                    .find(|p| *p != Fragmentation && p.source_port() == port)
            }
        };
        let protocols = [
            Protocol::Udp,
            Protocol::Tcp,
            Protocol::Icmp,
            Protocol::Other(0),
            Protocol::Other(17),
            Protocol::Other(47),
            Protocol::Other(255),
        ];
        let mut hits = 0;
        for protocol in protocols {
            for port in 0..=Port::MAX {
                for fragment in [false, true] {
                    let got = AmplificationProtocol::classify(protocol, port, fragment);
                    assert_eq!(
                        got,
                        scan(protocol, port, fragment),
                        "{protocol:?} port {port} fragment {fragment}"
                    );
                    hits += usize::from(got.is_some() && !fragment);
                }
            }
        }
        // Every UDP catalogue port, and nothing else, hits unfragmented.
        assert_eq!(hits, ALL.len() - 1);
    }

    #[test]
    fn port_zero_without_fragment_flag_is_not_fragmentation() {
        assert_eq!(
            AmplificationProtocol::classify(Protocol::Udp, 0, false),
            None
        );
    }

    #[test]
    fn display_matches_paper_footnote_style() {
        assert_eq!(AmplificationProtocol::Cldap.to_string(), "cLDAP/389");
        assert_eq!(
            AmplificationProtocol::Memcached.to_string(),
            "Memcache/11211"
        );
        assert_eq!(
            AmplificationProtocol::Fragmentation.to_string(),
            "Fragmentation"
        );
    }

    #[test]
    fn factors_are_positive() {
        for p in AMPLIFICATION_PROTOCOLS {
            assert!(p.amplification_factor() >= 1.0, "{p}");
        }
    }
}
