//! The IXP route server: fan-out with distribution control.
//!
//! The route server re-announces each member-submitted route to the other
//! members. A member can restrict the audience of its announcement with the
//! distribution-control communities of paper §4.1 (**targeted blackholing**,
//! the feature the paper finds "virtually ignored"):
//!
//! * `0:PEER` — do not announce to `PEER`;
//! * `0:RS` — announce to nobody except peers explicitly allowed;
//! * `RS:PEER` — announce to `PEER` (used with `0:RS` as an allow-list).

use std::collections::BTreeSet;

use rtbh_net::{Asn, Community};

use crate::update::BgpUpdate;

/// The route server of the IXP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteServer {
    asn: Asn,
    peers: BTreeSet<Asn>,
}

rtbh_json::impl_json! { struct RouteServer { asn, peers } }

impl RouteServer {
    /// Creates a route server with the given ASN and member peers.
    pub fn new(asn: Asn, peers: impl IntoIterator<Item = Asn>) -> Self {
        Self {
            asn,
            peers: peers.into_iter().collect(),
        }
    }

    /// The route server's AS number.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// The connected member peers.
    pub fn peers(&self) -> impl Iterator<Item = Asn> + '_ {
        self.peers.iter().copied()
    }

    /// Number of connected peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// The set of peers to which the route server re-announces `update`,
    /// honouring distribution-control communities. The submitting peer never
    /// receives its own route back.
    pub fn recipients(&self, update: &BgpUpdate) -> Vec<Asn> {
        let block_all = Community::block_all(self.asn);
        let deny_by_default = block_all.is_some_and(|c| update.communities.contains(&c));
        self.peers
            .iter()
            .copied()
            .filter(|&peer| peer != update.peer)
            .filter(|&peer| {
                if deny_by_default {
                    Community::announce_peer(self.asn, peer)
                        .is_some_and(|c| update.communities.contains(&c))
                } else {
                    !Community::block_peer(peer).is_some_and(|c| update.communities.contains(&c))
                }
            })
            .collect()
    }

    /// True if `update` is visible to `peer` after distribution control.
    pub fn is_visible_to(&self, update: &BgpUpdate, peer: Asn) -> bool {
        if peer == update.peer || !self.peers.contains(&peer) {
            return false;
        }
        let deny_by_default =
            Community::block_all(self.asn).is_some_and(|c| update.communities.contains(&c));
        if deny_by_default {
            Community::announce_peer(self.asn, peer)
                .is_some_and(|c| update.communities.contains(&c))
        } else {
            !Community::block_peer(peer).is_some_and(|c| update.communities.contains(&c))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::UpdateKind;
    use rtbh_net::{Ipv4Addr, Timestamp};

    const RS: Asn = Asn(6695);

    fn server() -> RouteServer {
        RouteServer::new(RS, [Asn(1), Asn(2), Asn(3), Asn(4)])
    }

    fn update(peer: u32, communities: Vec<Community>) -> BgpUpdate {
        BgpUpdate {
            at: Timestamp::EPOCH,
            peer: Asn(peer),
            prefix: "203.0.113.7/32".parse().unwrap(),
            origin: Asn(peer),
            kind: UpdateKind::Announce,
            communities,
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    #[test]
    fn default_is_fan_out_to_all_other_peers() {
        let rs = server();
        let u = update(1, vec![Community::BLACKHOLE]);
        assert_eq!(rs.recipients(&u), vec![Asn(2), Asn(3), Asn(4)]);
        assert!(!rs.is_visible_to(&u, Asn(1)), "no reflection to the sender");
    }

    #[test]
    fn block_peer_excludes_one() {
        let rs = server();
        let u = update(
            1,
            vec![Community::BLACKHOLE, Community::block_peer(Asn(3)).unwrap()],
        );
        assert_eq!(rs.recipients(&u), vec![Asn(2), Asn(4)]);
        assert!(!rs.is_visible_to(&u, Asn(3)));
        assert!(rs.is_visible_to(&u, Asn(2)));
    }

    #[test]
    fn allow_list_with_block_all() {
        let rs = server();
        let u = update(
            1,
            vec![
                Community::BLACKHOLE,
                Community::block_all(RS).unwrap(),
                Community::announce_peer(RS, Asn(2)).unwrap(),
            ],
        );
        assert_eq!(rs.recipients(&u), vec![Asn(2)]);
    }

    #[test]
    fn block_all_without_allows_reaches_nobody() {
        let rs = server();
        let u = update(
            1,
            vec![Community::BLACKHOLE, Community::block_all(RS).unwrap()],
        );
        assert!(rs.recipients(&u).is_empty());
    }

    #[test]
    fn non_member_is_never_visible() {
        let rs = server();
        let u = update(1, vec![Community::BLACKHOLE]);
        assert!(!rs.is_visible_to(&u, Asn(99)));
    }

    #[test]
    fn recipients_and_visibility_agree() {
        let rs = server();
        let u = update(
            2,
            vec![Community::BLACKHOLE, Community::block_peer(Asn(4)).unwrap()],
        );
        let recipients = rs.recipients(&u);
        for peer in rs.peers() {
            assert_eq!(
                recipients.contains(&peer),
                rs.is_visible_to(&u, peer),
                "{peer}"
            );
        }
    }
}
