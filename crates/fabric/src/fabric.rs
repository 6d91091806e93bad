//! The switching fabric: route distribution and the forwarding decision.

use std::collections::BTreeMap;

use rtbh_bgp::{BgpUpdate, Forwarding};
use rtbh_net::{Asn, Ipv4Addr, MacAddr, Prefix, Timestamp};

use crate::member::{Member, MemberId};

/// What happens to a packet handed into the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// The ingress router's best route is a blackhole: destination MAC is
    /// rewritten to [`MacAddr::BLACKHOLE`] and the frame is discarded.
    Blackholed,
    /// Delivered to the egress member's port.
    Delivered {
        /// The egress member.
        member: MemberId,
        /// The egress port MAC.
        mac: MacAddr,
    },
    /// The ingress router has no route; the packet never crosses the fabric.
    Unroutable,
}

rtbh_json::impl_json! {
    enum ForwardOutcome { Blackholed, Delivered { member, mac }, Unroutable }
}

impl ForwardOutcome {
    /// The destination MAC a sampled frame would carry, if it crosses the
    /// fabric at all.
    pub fn dst_mac(&self) -> Option<MacAddr> {
        match self {
            ForwardOutcome::Blackholed => Some(MacAddr::BLACKHOLE),
            ForwardOutcome::Delivered { mac, .. } => Some(*mac),
            ForwardOutcome::Unroutable => None,
        }
    }
}

/// The IXP switching fabric: members, their router ports, and the mapping
/// from route origins to egress members.
#[derive(Debug, Clone, Default)]
pub struct Fabric {
    members: Vec<Member>,
    by_asn: BTreeMap<Asn, MemberId>,
    /// Which member provides reachability for a given origin AS (members
    /// themselves, plus their customer cones).
    origin_member: BTreeMap<Asn, MemberId>,
}

rtbh_json::impl_json! { struct Fabric { members, by_asn, origin_member } }

impl Fabric {
    /// Builds a fabric from members. Member ids must be dense `0..n` (they
    /// index the internal vector).
    ///
    /// # Panics
    /// Panics if ids are not dense/ordered or ASNs repeat.
    pub fn new(members: Vec<Member>) -> Self {
        let mut by_asn = BTreeMap::new();
        for (i, m) in members.iter().enumerate() {
            assert_eq!(m.id.0 as usize, i, "member ids must be dense 0..n");
            let prev = by_asn.insert(m.asn, m.id);
            assert!(prev.is_none(), "duplicate member ASN {}", m.asn);
        }
        let mut fabric = Self {
            members,
            by_asn,
            origin_member: BTreeMap::new(),
        };
        // Every member reaches its own AS.
        for m in &fabric.members {
            fabric.origin_member.insert(m.asn, m.id);
        }
        fabric
    }

    /// All members.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Looks up a member by id.
    pub fn member(&self, id: MemberId) -> &Member {
        &self.members[id.0 as usize]
    }

    /// Looks up a member by ASN.
    pub fn member_by_asn(&self, asn: Asn) -> Option<&Member> {
        self.by_asn.get(&asn).map(|id| self.member(*id))
    }

    /// The egress member for an origin AS, if registered.
    pub fn origin_member(&self, origin: Asn) -> Option<MemberId> {
        self.origin_member.get(&origin).copied()
    }

    /// Seeds a regular (non-blackhole) route into every router of every
    /// member and records the origin→egress mapping. This stands in for the
    /// steady-state BGP table without synthesising churn for every prefix.
    pub fn seed_regular_route(
        &mut self,
        prefix: Prefix,
        origin: Asn,
        egress: MemberId,
        at: Timestamp,
    ) {
        self.origin_member.insert(origin, egress);
        for m in &mut self.members {
            for r in m.routers_mut() {
                r.rib.install_regular(prefix, origin, at);
            }
        }
    }

    /// Distributes an update to the given recipient peers: each recipient
    /// member applies it on **all** of its routers, each filtering through
    /// its own import policy. Unknown recipient ASNs are ignored (a route
    /// server may list peers that disconnected).
    pub fn distribute(&mut self, update: &BgpUpdate, recipients: &[Asn]) {
        for peer in recipients {
            if let Some(&id) = self.by_asn.get(peer) {
                for r in self.members[id.0 as usize].routers_mut() {
                    r.rib.apply(update);
                }
            }
        }
    }

    /// Applies an update directly to one member's routers — used for
    /// bilateral (non-route-server) blackholes, the ~5% of dropped bytes the
    /// paper attributes to "other RTBH sources" (§3.1).
    pub fn apply_bilateral(&mut self, update: &BgpUpdate, member: MemberId) {
        for r in self.members[member.0 as usize].routers_mut() {
            r.rib.apply(update);
        }
    }

    /// The forwarding decision for a packet handed over by `ingress` member
    /// on the router with MAC `ingress_mac` towards `dst`.
    ///
    /// Falls back to the member's primary router if the MAC is unknown
    /// (defensive; simulators always pass valid MACs).
    pub fn forward(
        &self,
        ingress: MemberId,
        ingress_mac: MacAddr,
        dst: Ipv4Addr,
    ) -> ForwardOutcome {
        let member = self.member(ingress);
        let router = member
            .router_by_mac(ingress_mac)
            .unwrap_or_else(|| member.primary_router());
        match router.rib.decide(dst) {
            Forwarding::Blackholed => ForwardOutcome::Blackholed,
            Forwarding::Forward(origin) => match self.origin_member.get(&origin) {
                Some(&egress) => ForwardOutcome::Delivered {
                    member: egress,
                    mac: self.member(egress).primary_router().mac,
                },
                None => ForwardOutcome::Unroutable,
            },
            Forwarding::NoRoute => ForwardOutcome::Unroutable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_bgp::{ImportPolicy, UpdateKind};
    use rtbh_net::Community;

    use crate::member::RouterPort;

    fn two_member_fabric() -> Fabric {
        let m0 = Member::new(
            MemberId(0),
            Asn(100),
            vec![RouterPort::new(
                MacAddr::from_id(0),
                ImportPolicy::WHITELIST_32,
            )],
        );
        let m1 = Member::new(
            MemberId(1),
            Asn(200),
            vec![
                RouterPort::new(MacAddr::from_id(10), ImportPolicy::WHITELIST_32),
                RouterPort::new(MacAddr::from_id(11), ImportPolicy::DEFAULT_24),
            ],
        );
        let mut fabric = Fabric::new(vec![m0, m1]);
        fabric.seed_regular_route(
            "203.0.113.0/24".parse().unwrap(),
            Asn(100),
            MemberId(0),
            Timestamp::EPOCH,
        );
        fabric
    }

    fn blackhole_update(prefix: &str) -> BgpUpdate {
        BgpUpdate {
            at: Timestamp::EPOCH,
            peer: Asn(100),
            prefix: prefix.parse().unwrap(),
            origin: Asn(100),
            kind: UpdateKind::Announce,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    #[test]
    fn delivered_to_victim_member_before_blackhole() {
        let fabric = two_member_fabric();
        let out = fabric.forward(
            MemberId(1),
            MacAddr::from_id(10),
            "203.0.113.7".parse().unwrap(),
        );
        assert_eq!(
            out,
            ForwardOutcome::Delivered {
                member: MemberId(0),
                mac: MacAddr::from_id(0)
            }
        );
        assert_eq!(out.dst_mac(), Some(MacAddr::from_id(0)));
    }

    #[test]
    fn accepting_router_blackholes_rejecting_router_forwards() {
        let mut fabric = two_member_fabric();
        let bh = blackhole_update("203.0.113.7/32");
        fabric.distribute(&bh, &[Asn(200)]);
        let dst: Ipv4Addr = "203.0.113.7".parse().unwrap();
        // Router 10 whitelists /32 → drop; router 11 keeps default → forward.
        assert_eq!(
            fabric.forward(MemberId(1), MacAddr::from_id(10), dst),
            ForwardOutcome::Blackholed
        );
        assert!(matches!(
            fabric.forward(MemberId(1), MacAddr::from_id(11), dst),
            ForwardOutcome::Delivered {
                member: MemberId(0),
                ..
            }
        ));
    }

    #[test]
    fn distribution_skips_non_recipients() {
        let mut fabric = two_member_fabric();
        let bh = blackhole_update("203.0.113.7/32");
        fabric.distribute(&bh, &[]); // targeted away from everyone
        assert!(matches!(
            fabric.forward(
                MemberId(1),
                MacAddr::from_id(10),
                "203.0.113.7".parse().unwrap()
            ),
            ForwardOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn unknown_recipient_asn_is_ignored() {
        let mut fabric = two_member_fabric();
        let bh = blackhole_update("203.0.113.7/32");
        fabric.distribute(&bh, &[Asn(999)]);
        // Nothing installed anywhere; no panic.
        assert!(matches!(
            fabric.forward(
                MemberId(1),
                MacAddr::from_id(10),
                "203.0.113.7".parse().unwrap()
            ),
            ForwardOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn unroutable_without_seeded_route() {
        let fabric = two_member_fabric();
        let out = fabric.forward(
            MemberId(1),
            MacAddr::from_id(10),
            "8.8.8.8".parse().unwrap(),
        );
        assert_eq!(out, ForwardOutcome::Unroutable);
        assert_eq!(out.dst_mac(), None);
    }

    #[test]
    fn bilateral_blackhole_affects_one_member_only() {
        let mut fabric = two_member_fabric();
        let bh = blackhole_update("203.0.113.7/32");
        fabric.apply_bilateral(&bh, MemberId(1));
        let dst: Ipv4Addr = "203.0.113.7".parse().unwrap();
        assert_eq!(
            fabric.forward(MemberId(1), MacAddr::from_id(10), dst),
            ForwardOutcome::Blackholed
        );
        // Member 0's own routers untouched (it is the victim anyway).
        assert!(matches!(
            fabric.forward(MemberId(0), MacAddr::from_id(0), dst),
            ForwardOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn member_lookup() {
        let fabric = two_member_fabric();
        assert_eq!(fabric.member_by_asn(Asn(200)).unwrap().id, MemberId(1));
        assert!(fabric.member_by_asn(Asn(5)).is_none());
        assert_eq!(fabric.origin_member(Asn(100)), Some(MemberId(0)));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_rejected() {
        let m = Member::new(
            MemberId(5),
            Asn(1),
            vec![RouterPort::new(MacAddr::from_id(0), ImportPolicy::FULL)],
        );
        let _ = Fabric::new(vec![m]);
    }

    #[test]
    fn withdraw_via_distribute_restores_forwarding() {
        let mut fabric = two_member_fabric();
        let bh = blackhole_update("203.0.113.7/32");
        fabric.distribute(&bh, &[Asn(200)]);
        let mut wd = blackhole_update("203.0.113.7/32");
        wd.kind = UpdateKind::Withdraw;
        fabric.distribute(&wd, &[Asn(200)]);
        assert!(matches!(
            fabric.forward(
                MemberId(1),
                MacAddr::from_id(10),
                "203.0.113.7".parse().unwrap()
            ),
            ForwardOutcome::Delivered { .. }
        ));
    }
}
