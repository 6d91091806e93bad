//! The ground-truth ledger.
//!
//! Everything the planner decides is recorded here so tests and
//! EXPERIMENTS.md can score the analysis pipeline against what was actually
//! planted. The analysis itself never reads this.

use rtbh_net::{AmplificationProtocol, Asn, Interval, Ipv4Addr, Prefix};

/// How the victim host behaves on the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostProfile {
    /// Steady server baseline: stable listening services.
    Server,
    /// Steady client baseline: daily-rotating dominant remote service.
    Client,
    /// No baseline traffic crossing the IXP.
    Silent,
}

/// What kind of RTBH event was planted.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A DDoS attack visible at the IXP triggered the blackhole.
    AttackVisible {
        /// The amplification vectors used (empty for SYN/random-port-only).
        vectors: Vec<AmplificationProtocol>,
        /// True if the flood is hard to filter (random/rising ports,
        /// multi-protocol) rather than amplification-port matched.
        hard_to_filter: bool,
        /// When the attack traffic actually flowed.
        attack_window: Interval,
        /// Plateau rate of the attack in raw packets per second.
        peak_pps: f64,
    },
    /// The RTBH reacted to something invisible at this vantage point.
    AttackInvisible,
    /// The victim only ever shows its regular baseline at the IXP.
    ConstantTraffic,
    /// Announced once and forgotten (never withdrawn).
    Zombie,
    /// Squatting-protection blackhole (≤/24, long-lived, scan noise only).
    Squatting,
}

/// One planned RTBH event with its control-plane schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedEvent {
    /// Stable event id.
    pub id: u32,
    /// What was planted.
    pub kind: EventKind,
    /// The blackholed prefix.
    pub prefix: Prefix,
    /// The attacked host (the prefix's covered address for /32; a
    /// representative host for shorter prefixes).
    pub victim: Ipv4Addr,
    /// The member AS that triggers the blackhole at the route server.
    pub trigger_peer: Asn,
    /// The origin AS of the blackholed prefix.
    pub origin: Asn,
    /// The victim's data-plane behaviour.
    pub host: HostProfile,
    /// The `[announce, withdraw)` spans of the on-off announcement pattern,
    /// in time order. The union is the control-plane activity of the event.
    pub announcement_spans: Vec<Interval>,
    /// Peers excluded from distribution (targeted blackholing); empty means
    /// announced to everyone.
    pub blocked_peers: Vec<Asn>,
}

impl PlannedEvent {
    /// First announcement instant.
    pub fn first_announce(&self) -> rtbh_net::Timestamp {
        self.announcement_spans
            .first()
            .expect("event has spans")
            .start
    }
}

/// The full ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    /// All planted RTBH events (including squatting), in id order.
    pub events: Vec<PlannedEvent>,
    /// Member ASes whose routers accept /32 blackholes on all ports.
    pub accepting_members: Vec<Asn>,
    /// Member ASes whose routers reject /32 blackholes on all ports.
    pub rejecting_members: Vec<Asn>,
    /// Member ASes with split (inconsistent) router configurations.
    pub inconsistent_members: Vec<Asn>,
    /// The injected data-plane clock offset in milliseconds.
    pub clock_offset_ms: i64,
    /// The heavy-hitter amplifier origin AS (participates in most attacks).
    pub heavy_hitter_origin: Asn,
}

impl GroundTruth {
    /// Events of a given coarse class, by predicate on [`EventKind`].
    pub fn events_where<'a>(
        &'a self,
        pred: impl Fn(&EventKind) -> bool + 'a,
    ) -> impl Iterator<Item = &'a PlannedEvent> {
        self.events.iter().filter(move |e| pred(&e.kind))
    }

    /// Count of visible-attack events.
    pub fn visible_attack_count(&self) -> usize {
        self.events_where(|k| matches!(k, EventKind::AttackVisible { .. }))
            .count()
    }

    /// Count of zombie events.
    pub fn zombie_count(&self) -> usize {
        self.events_where(|k| matches!(k, EventKind::Zombie))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_net::{TimeDelta, Timestamp};

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(
            Timestamp::EPOCH + TimeDelta::minutes(a),
            Timestamp::EPOCH + TimeDelta::minutes(b),
        )
    }

    fn event(spans: Vec<Interval>) -> PlannedEvent {
        PlannedEvent {
            id: 1,
            kind: EventKind::Zombie,
            prefix: "10.0.0.1/32".parse().unwrap(),
            victim: "10.0.0.1".parse().unwrap(),
            trigger_peer: Asn(1001),
            origin: Asn(2001),
            host: HostProfile::Silent,
            announcement_spans: spans,
            blocked_peers: Vec::new(),
        }
    }

    #[test]
    fn first_and_last_span_accessors() {
        let e = event(vec![iv(5, 10), iv(20, 40)]);
        assert_eq!(e.first_announce(), Timestamp::EPOCH + TimeDelta::minutes(5));
    }

    #[test]
    fn ledger_filters() {
        let mut truth = GroundTruth::default();
        truth.events.push(event(vec![iv(0, 10)]));
        let mut atk = event(vec![iv(0, 10)]);
        atk.kind = EventKind::AttackVisible {
            vectors: vec![AmplificationProtocol::Cldap],
            hard_to_filter: false,
            attack_window: iv(0, 60),
            peak_pps: 1000.0,
        };
        truth.events.push(atk);
        assert_eq!(truth.zombie_count(), 1);
        assert_eq!(truth.visible_attack_count(), 1);
    }
}

rtbh_json::impl_json! { enum HostProfile { Server, Client, Silent } }

rtbh_json::impl_json! {
    enum EventKind {
        AttackVisible { vectors, hard_to_filter, attack_window, peak_pps },
        AttackInvisible,
        ConstantTraffic,
        Zombie,
        Squatting,
    }
}

rtbh_json::impl_json! {
    struct PlannedEvent {
        id, kind, prefix, victim, trigger_peer, origin, host,
        announcement_spans, blocked_peers,
    }
}

rtbh_json::impl_json! {
    struct GroundTruth {
        events, accepting_members, rejecting_members, inconsistent_members,
        clock_offset_ms, heavy_hitter_origin,
    }
}
