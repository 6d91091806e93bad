//! Seeded randomized tests for the BGP substrate.
//!
//! Each test draws its cases from a [`ChaChaRng`] with a fixed per-test
//! stream, so failures reproduce exactly.

use rtbh_bgp::{
    blackhole_intervals, BgpUpdate, ImportPolicy, Rib, RouteServer, UpdateKind, UpdateLog,
};
use rtbh_net::{Asn, Community, Ipv4Addr, Prefix, TimeDelta, Timestamp};
use rtbh_rng::{ChaChaRng, Rng};

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

const CASES: usize = 256;

fn rng(seed: u64) -> ChaChaRng {
    // Per-test stream: tests stay independent of each other's draw order.
    ChaChaRng::seed_from_u64(seed)
}

fn arb_prefix(rng: &mut ChaChaRng) -> Prefix {
    let bits = rng.next_u32();
    let len = rng.gen_range(8u8..=32);
    Prefix::new(Ipv4Addr::from_u32(bits), len).unwrap()
}

fn arb_communities(rng: &mut ChaChaRng) -> Vec<Community> {
    let n = rng.gen_range(0usize..6);
    (0..n)
        .map(|_| Community::new(rng.gen(), rng.gen()))
        .collect()
}

fn update(at_min: i64, prefix: Prefix, kind: UpdateKind) -> BgpUpdate {
    BgpUpdate {
        at: Timestamp::EPOCH + TimeDelta::minutes(at_min),
        peer: Asn(1),
        prefix,
        origin: Asn(2),
        kind,
        communities: vec![Community::BLACKHOLE],
        next_hop: Ipv4Addr::new(198, 51, 100, 66),
    }
}

/// Distribution control: recipients + sender + hidden peers partition
/// the peer set.
#[test]
fn route_server_recipients_partition_peers() {
    let mut rng = rng(seeds::PROP_ROUTE_SERVER_PARTITION);
    for _ in 0..CASES {
        let peer_count = rng.gen_range(2u32..40);
        let sender_idx = rng.gen_range(0u32..40);
        let blocked: Vec<u32> = (0..rng.gen_range(0usize..8))
            .map(|_| rng.gen_range(0u32..40))
            .collect();
        let allow_mode = rng.gen_bool(0.5);
        let allowed: Vec<u32> = (0..rng.gen_range(0usize..8))
            .map(|_| rng.gen_range(0u32..40))
            .collect();

        let rs_asn = Asn(6695);
        let peers: Vec<Asn> = (0..peer_count).map(|i| Asn(100 + i)).collect();
        let server = RouteServer::new(rs_asn, peers.iter().copied());
        let sender = peers[(sender_idx % peer_count) as usize];
        let mut communities = vec![Community::BLACKHOLE];
        if allow_mode {
            communities.push(Community::block_all(rs_asn).unwrap());
            for a in &allowed {
                let peer = Asn(100 + (a % peer_count));
                communities.push(Community::announce_peer(rs_asn, peer).unwrap());
            }
        } else {
            for b in &blocked {
                let peer = Asn(100 + (b % peer_count));
                communities.push(Community::block_peer(peer).unwrap());
            }
        }
        let u = BgpUpdate {
            at: Timestamp::EPOCH,
            peer: sender,
            prefix: "10.0.0.1/32".parse().unwrap(),
            origin: sender,
            kind: UpdateKind::Announce,
            communities,
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        };
        let recipients = server.recipients(&u);
        // Sender never receives its own route.
        assert!(!recipients.contains(&sender));
        // recipients == {p != sender | is_visible_to(p)} exactly.
        for p in &peers {
            let visible = server.is_visible_to(&u, *p);
            assert_eq!(recipients.contains(p), visible, "{p}");
        }
    }
}

/// Announce/withdraw sequences produce sorted, disjoint intervals whose
/// count never exceeds the number of announcements.
#[test]
fn interval_reconstruction_invariants() {
    let mut rng = rng(seeds::PROP_INTERVAL_RECONSTRUCTION);
    for _ in 0..CASES {
        let prefix = arb_prefix(&mut rng);
        // Alternate announce/withdraw gaps in minutes.
        let gaps: Vec<i64> = (0..rng.gen_range(1usize..20))
            .map(|_| rng.gen_range(1i64..200))
            .collect();
        let trailing_announce = rng.gen_bool(0.5);

        let mut updates = Vec::new();
        let mut t = 0i64;
        let mut announces = 0usize;
        for (i, g) in gaps.iter().enumerate() {
            t += g;
            let kind = if i % 2 == 0 {
                UpdateKind::Announce
            } else {
                UpdateKind::Withdraw
            };
            if kind == UpdateKind::Announce {
                announces += 1;
            }
            updates.push(update(t, prefix, kind));
        }
        if trailing_announce {
            t += 5;
            updates.push(update(t, prefix, UpdateKind::Announce));
            announces += 1;
        }
        let corpus_end = Timestamp::EPOCH + TimeDelta::minutes(t + 100);
        let log = UpdateLog::from_updates(updates);
        let map = blackhole_intervals(log.blackholes(), corpus_end);
        if let Some(ivs) = map.get(&prefix) {
            assert!(ivs.len() <= announces);
            for w in ivs.windows(2) {
                assert!(w[0].end <= w[1].start, "intervals must be disjoint+sorted");
            }
            for iv in ivs {
                assert!(iv.start < iv.end);
                assert!(iv.end <= corpus_end);
            }
        }
    }
}

/// A RIB that accepted a blackhole always reverts on withdraw, and a RIB
/// that rejected it is never affected.
#[test]
fn rib_announce_withdraw_symmetry() {
    let mut rng = rng(seeds::PROP_RIB_SYMMETRY);
    for _ in 0..CASES {
        let prefix = arb_prefix(&mut rng);
        let policy = ImportPolicy {
            accept_blackhole_le24: true,
            accept_blackhole_25_31: rng.gen_bool(0.5),
            accept_blackhole_32: rng.gen_bool(0.5),
            accept_regular: true,
        };
        let mut rib = Rib::new(policy);
        // Seed a covering regular route where possible.
        let cover = Prefix::new(prefix.network(), prefix.len().min(24)).unwrap();
        rib.install_regular(cover, Asn(9), Timestamp::EPOCH);
        let before = rib.decide(prefix.network());

        let accepted_expected = policy.accepts_blackhole(prefix);
        let changed = rib.apply(&update(1, prefix, UpdateKind::Announce));
        assert_eq!(changed, accepted_expected);
        rib.apply(&update(2, prefix, UpdateKind::Withdraw));
        let after = rib.decide(prefix.network());
        assert_eq!(
            before, after,
            "withdraw must restore the pre-announce state"
        );
    }
}

// ---- wire codec round trips over randomized updates ----

#[test]
fn wire_announce_round_trips() {
    let mut rng = rng(seeds::PROP_WIRE_ANNOUNCE);
    for _ in 0..CASES {
        let u = BgpUpdate {
            at: Timestamp::from_millis(rng.gen_range(0i64..10_000_000_000)),
            peer: Asn(rng.next_u32()),
            prefix: arb_prefix(&mut rng),
            origin: Asn(rng.next_u32()),
            kind: UpdateKind::Announce,
            communities: arb_communities(&mut rng),
            next_hop: Ipv4Addr::from_u32(rng.next_u32()),
        };
        let bytes = rtbh_bgp::encode_update(&u).unwrap();
        let decoded = rtbh_bgp::decode_update(&bytes, u.at, u.peer).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(&decoded[0], &u);
    }
}

#[test]
fn wire_log_round_trips() {
    let mut rng = rng(seeds::PROP_WIRE_LOG);
    for _ in 0..64 {
        // Build a canonical log: wire withdrawals are bare retractions.
        let mut updates: Vec<BgpUpdate> = (0..rng.gen_range(0usize..24))
            .map(|_| {
                let prefix = arb_prefix(&mut rng);
                let at_ms = rng.gen_range(0i64..100_000);
                let announce = rng.gen_bool(0.5);
                let communities = arb_communities(&mut rng);
                BgpUpdate {
                    at: Timestamp::from_millis(at_ms),
                    peer: Asn(7),
                    prefix,
                    origin: if announce { Asn(9) } else { Asn::RESERVED },
                    kind: if announce {
                        UpdateKind::Announce
                    } else {
                        UpdateKind::Withdraw
                    },
                    communities: if announce { communities } else { Vec::new() },
                    next_hop: if announce {
                        Ipv4Addr::new(198, 51, 100, 66)
                    } else {
                        Ipv4Addr::UNSPECIFIED
                    },
                }
            })
            .collect();
        updates.sort_by_key(|u| u.at);
        let log = UpdateLog::from_updates(updates);
        let bytes = rtbh_bgp::encode_update_log(&log).unwrap();
        let decoded = rtbh_bgp::decode_update_log(&bytes).unwrap();
        assert_eq!(decoded, log);
    }
}

/// Fuzz the decoder: arbitrary bytes must produce Ok or Err, never panic.
#[test]
fn wire_decoder_never_panics_on_garbage() {
    let mut rng = rng(seeds::PROP_WIRE_GARBAGE);
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..200);
        let mut raw = vec![0u8; len];
        for b in &mut raw {
            *b = rng.gen();
        }
        let _ = rtbh_bgp::decode_update_log(&raw);
        // Also fuzz around a valid message so the parser's deeper branches
        // get exercised, not just the marker check.
        let mut msg =
            rtbh_bgp::encode_update(&update(1, arb_prefix(&mut rng), UpdateKind::Announce))
                .unwrap();
        if !msg.is_empty() {
            let idx = rng.gen_range(0usize..msg.len());
            msg[idx] ^= 1 << rng.gen_range(0u8..8);
            let _ = rtbh_bgp::decode_update(&msg, Timestamp::EPOCH, Asn(1));
        }
    }
}

/// Seeded-stream hygiene: no two randomized tests in this crate may draw
/// from the same base seed.
#[test]
fn seed_table_has_no_collisions() {
    rtbh_testkit::assert_unique_seeds(seeds::BGP_SEEDS);
}
