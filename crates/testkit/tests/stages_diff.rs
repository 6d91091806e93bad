//! Differential suite for the stage kernels whose work follows changes and
//! samples: the Fig. 4 visibility sweep, the pre-event kernel that the
//! batch stage and the stream's anomaly backfill share, the fine-grained
//! filtering emulation and the acceptance tallies. Each runs against the
//! kernel it replaced, which lives on only here as the oracle:
//!
//! * visibility — the per-instant sweep: every grid instant walks every
//!   active item and sorts all peers' shares for its three quantiles;
//! * pre-event — per-slot `HashSet` feature series, every slot pushed
//!   through five `EwmaDetector`s with a verdict at every slot;
//! * stream backfill — a scan over every kept sample of the feed,
//!   recomputed at each journaled verdict's start;
//! * filtering — three `BTreeSet` inserts per during-event sample;
//! * protocols — a `BTreeMap` entry per amplification-matched
//!   during-event sample, found by a scan of the catalogue;
//! * acceptance — up to three `BTreeMap` entries per blackhole-active row.
//!
//! Values must be equal and their JSON bytes identical. The generators aim
//! at the edges of each shortcut: grid instants hit exactly and ±1 ms,
//! peers that see nothing, windows with no rows, slot values exactly at
//! the anomaly floor, detectors that never warm up, events just short of
//! the filtering threshold, fragments of every protocol, every catalogue
//! port and ports 0 and 65535, events whose coverage holds no row, /32
//! rows from unknown ingress ports, prefixes that hold intervals but no
//! active row. A last target runs them all on simulated corpora under
//! fuzzed stage configurations.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use std::collections::{BTreeMap, BTreeSet, HashSet};

use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
use rtbh_core::acceptance::{analyze_acceptance, AcceptanceAnalysis, DropTally};
use rtbh_core::columns::ColumnarFlows;
use rtbh_core::corpus::{Corpus, MemberInfo, Registry};
use rtbh_core::events::RtbhEvent;
use rtbh_core::filtering::{analyze_filtering, FilterEmulation, FilteringAnalysis};
use rtbh_core::index::{MacResolver, OriginTable, SampleIndex};
use rtbh_core::pipeline::AnalyzerConfig;
use rtbh_core::preevent::{
    analyze_event, analyze_preevents, AnomalyHit, PreClass, PreEventAnalysis, PreEventConfig,
    PreEventResult, FEATURES,
};
use rtbh_core::protocols::{analyze_event_traffic, EventTraffic, ProtocolAnalysis};
use rtbh_core::stream::{Retention, StreamAnalyzer, StreamConfig, StreamEvent};
use rtbh_core::visibility::{visibility_series, VisibilityPoint};
use rtbh_core::Analyzer;
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_net::{
    AmplificationProtocol, Asn, Community, Interval, Ipv4Addr, MacAddr, Prefix, Protocol,
    TimeDelta, Timestamp, AMPLIFICATION_PROTOCOLS,
};
use rtbh_rng::{ChaChaRng, Rng, SliceRandom};
use rtbh_sim::ScenarioConfig;
use rtbh_stats::{EwmaConfig, EwmaDetector};
use rtbh_testkit::streamgen::{arb_feed, burst_at, splice_sorted, FeedConfig, FeedItem};
use rtbh_testkit::FuzzTarget;

fn assert_same_json<T: rtbh_json::ToJson + PartialEq + std::fmt::Debug>(
    actual: &T,
    expected: &T,
    what: &str,
) {
    assert_eq!(actual, expected, "{what}");
    assert_eq!(
        rtbh_json::to_string(actual),
        rtbh_json::to_string(expected),
        "{what}: JSON bytes differ"
    );
}

// ---------------------------------------------------------------------
// Visibility: the per-instant sort sweep.
// ---------------------------------------------------------------------

fn oracle_hidden_peers(
    communities: &[Community],
    peers: &[Asn],
    route_server: Asn,
    sender: Asn,
) -> Vec<Asn> {
    let deny_all = Community::block_all(route_server).is_some_and(|c| communities.contains(&c));
    peers
        .iter()
        .copied()
        .filter(|&p| p != sender)
        .filter(|&p| {
            if deny_all {
                !Community::announce_peer(route_server, p).is_some_and(|c| communities.contains(&c))
            } else {
                Community::block_peer(p).is_some_and(|c| communities.contains(&c))
            }
        })
        .collect()
}

struct OracleItem {
    interval: Interval,
    hidden_from: Vec<Asn>,
}

fn oracle_items(
    updates: &UpdateLog,
    peers: &[Asn],
    route_server: Asn,
    corpus_end: Timestamp,
) -> Vec<OracleItem> {
    let mut open: BTreeMap<Prefix, (Timestamp, Vec<Asn>)> = BTreeMap::new();
    let mut items = Vec::new();
    for u in updates.updates() {
        match u.kind {
            UpdateKind::Announce => {
                if !u.is_blackhole() {
                    continue;
                }
                open.entry(u.prefix).or_insert_with(|| {
                    (
                        u.at,
                        oracle_hidden_peers(&u.communities, peers, route_server, u.peer),
                    )
                });
            }
            UpdateKind::Withdraw => {
                if let Some((start, hidden_from)) = open.remove(&u.prefix) {
                    if u.at > start {
                        items.push(OracleItem {
                            interval: Interval::new(start, u.at),
                            hidden_from,
                        });
                    }
                }
            }
        }
    }
    for (_, (start, hidden_from)) in open {
        if corpus_end > start {
            items.push(OracleItem {
                interval: Interval::new(start, corpus_end),
                hidden_from,
            });
        }
    }
    items.sort_by_key(|i| i.interval.start);
    items
}

fn oracle_visibility(
    updates: &UpdateLog,
    peers: &[Asn],
    route_server: Asn,
    period: Interval,
    step: TimeDelta,
) -> Vec<VisibilityPoint> {
    let items = oracle_items(updates, peers, route_server, period.end);
    let mut enter_idx = 0usize;
    let mut active: Vec<usize> = Vec::new();
    let mut hidden_count: BTreeMap<Asn, usize> = BTreeMap::new();
    let peer_count = peers.len().max(1);
    let mut series = Vec::new();
    let mut t = period.start;
    while t < period.end {
        while enter_idx < items.len() && items[enter_idx].interval.start <= t {
            if items[enter_idx].interval.end > t {
                active.push(enter_idx);
                for p in &items[enter_idx].hidden_from {
                    *hidden_count.entry(*p).or_insert(0) += 1;
                }
            }
            enter_idx += 1;
        }
        active.retain(|&i| {
            if items[i].interval.end <= t {
                for p in &items[i].hidden_from {
                    if let Some(c) = hidden_count.get_mut(p) {
                        *c = c.saturating_sub(1);
                    }
                }
                false
            } else {
                true
            }
        });
        let n = active.len();
        let (median, p99, max) = if n == 0 {
            (0.0, 0.0, 0.0)
        } else {
            let mut shares: Vec<f64> = hidden_count
                .values()
                .filter(|&&c| c > 0)
                .map(|&c| c as f64 / n as f64)
                .collect();
            shares.resize(peer_count, 0.0);
            shares.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let q = |q: f64| rtbh_stats::quantile::quantile_sorted(&shares, q);
            (q(0.5), q(0.99), q(1.0))
        };
        series.push(VisibilityPoint {
            at: t,
            active: n,
            median,
            p99,
            max,
        });
        t += step;
    }
    series
}

const RS: Asn = Asn(6695);
/// A route server whose ASN does not fit a standard community.
const RS_WIDE: Asn = Asn(4_200_000_001);

const VIS_PREFIXES: [&str; 5] = [
    "10.0.0.1/32",
    "10.0.0.2/32",
    "10.0.1.0/24",
    "10.0.2.0/24",
    "192.0.2.0/25",
];

struct VisCase {
    updates: UpdateLog,
    peers: Vec<Asn>,
    route_server: Asn,
    period: Interval,
    step: TimeDelta,
}

fn arb_peers(rng: &mut ChaChaRng) -> Vec<Asn> {
    match rng.gen_range(0..6u32) {
        0 => vec![Asn(64_501)],
        1 => (0..415).map(|i| Asn(64_500 + i)).collect(),
        _ => {
            let mut peers: Vec<Asn> = (0..rng.gen_range(2..=12u32))
                .map(|_| match rng.gen_range(0..8u32) {
                    // A 32-bit peer no distribution community can name.
                    0 => Asn(4_200_000_000 + rng.gen_range(0..4u32)),
                    _ => Asn(64_500 + rng.gen_range(0..16u32)),
                })
                .collect();
            if rng.gen_bool(0.8) {
                peers.sort_unstable();
                peers.dedup();
            }
            peers.shuffle(rng);
            peers
        }
    }
}

fn arb_communities(rng: &mut ChaChaRng, peers: &[Asn], route_server: Asn) -> Vec<Community> {
    let mut communities = Vec::new();
    if rng.gen_ratio(9, 10) {
        communities.push(Community::BLACKHOLE);
    }
    match rng.gen_range(0..5u32) {
        // Blocks: a few peers, possibly the sender, possibly 32-bit ones.
        0 | 1 => {
            for _ in 0..rng.gen_range(1..=4usize) {
                let p = *peers.choose(rng).expect("peers are never empty");
                communities.extend(Community::block_peer(p));
            }
        }
        // Allow-list: announce to nobody except a few peers.
        2 => {
            communities.extend(Community::block_all(route_server));
            for _ in 0..rng.gen_range(0..=3usize) {
                let p = *peers.choose(rng).expect("peers are never empty");
                communities.extend(Community::announce_peer(route_server, p));
            }
        }
        // A `0:x` community that names no peer.
        3 => communities.push(Community {
            asn: 0,
            value: rng.gen_range(1..=99u32) as u16,
        }),
        _ => {}
    }
    if rng.gen_ratio(1, 4) {
        communities.push(Community::NO_EXPORT);
    }
    communities.shuffle(rng);
    communities
}

fn arb_vis_case(rng: &mut ChaChaRng) -> VisCase {
    let step_ms = match rng.gen_range(0..4u32) {
        0 => 1,
        1 => rng.gen_range(2..=50i64),
        2 => 60_000,
        _ => 600_000,
    };
    let instants = rng.gen_range(0..=40i64);
    let start = rng.gen_range(-20..=20i64) * step_ms + rng.gen_range(-3..=3i64);
    // A trim below one step keeps the instant count but makes the step not
    // divide the period.
    let trim = if step_ms > 1 && instants > 0 && rng.gen_bool(0.5) {
        rng.gen_range(1..step_ms)
    } else {
        0
    };
    let end = start + instants * step_ms - trim;
    let period = Interval::new(Timestamp::from_millis(start), Timestamp::from_millis(end));
    let peers = arb_peers(rng);
    let route_server = if rng.gen_ratio(1, 5) { RS_WIDE } else { RS };
    let arb_time = |rng: &mut ChaChaRng| -> i64 {
        match rng.gen_range(0..3u32) {
            // Exactly on an instant, or one millisecond either side.
            0 => start + rng.gen_range(-1..=instants + 1) * step_ms + rng.gen_range(-1..=1i64),
            1 => start - 2 * step_ms + rng.gen_range(0..=(instants + 3) * step_ms),
            // Before the period.
            _ => start - rng.gen_range(1..=5 * step_ms),
        }
    };
    let updates = (0..rng.gen_range(0..=30usize))
        .map(|_| {
            let prefix: Prefix = VIS_PREFIXES.choose(rng).unwrap().parse().unwrap();
            let peer = if rng.gen_ratio(1, 8) {
                Asn(1)
            } else {
                *peers.choose(rng).unwrap()
            };
            let announce = rng.gen_ratio(2, 3);
            BgpUpdate {
                at: Timestamp::from_millis(arb_time(rng)),
                peer,
                prefix,
                origin: peer,
                kind: if announce {
                    UpdateKind::Announce
                } else {
                    UpdateKind::Withdraw
                },
                communities: if announce {
                    arb_communities(rng, &peers, route_server)
                } else {
                    Vec::new()
                },
                next_hop: Ipv4Addr::new(198, 51, 100, 66),
            }
        })
        .collect();
    VisCase {
        updates: UpdateLog::from_updates(updates),
        peers,
        route_server,
        period,
        step: TimeDelta::millis(step_ms),
    }
}

fn check_visibility(case: &VisCase) -> Vec<VisibilityPoint> {
    let swept = visibility_series(
        &case.updates,
        &case.peers,
        case.route_server,
        case.period,
        case.step,
    );
    let expected = oracle_visibility(
        &case.updates,
        &case.peers,
        case.route_server,
        case.period,
        case.step,
    );
    assert_same_json(&swept, &expected, "visibility series");
    swept
}

#[test]
fn visibility_matches_the_per_instant_sweep_on_generated_logs() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stages_diff",
        test_name: "visibility_matches_the_per_instant_sweep_on_generated_logs",
        base_seed: seeds::FUZZ_STAGES_VISIBILITY,
    };
    let mut hidden_points = 0usize;
    target.run(300, |_, rng| {
        let case = arb_vis_case(rng);
        hidden_points += check_visibility(&case)
            .iter()
            .filter(|p| p.max > 0.0)
            .count();
    });
    assert!(hidden_points > 0, "no generated case hid a blackhole");
}

fn targeted(at_min: i64, prefix: &str, sender: Asn, communities: Vec<Community>) -> BgpUpdate {
    BgpUpdate {
        at: Timestamp::EPOCH + TimeDelta::minutes(at_min),
        peer: sender,
        prefix: prefix.parse().unwrap(),
        origin: sender,
        kind: UpdateKind::Announce,
        communities,
        next_hop: Ipv4Addr::new(198, 51, 100, 66),
    }
}

#[test]
fn a_p99_between_a_zero_share_and_a_nonzero_one_interpolates_identically() {
    // 415 peers: the 0.99 quantile sits at sorted position 409.86, so with
    // five peers missing something it interpolates between the last
    // implicit zero and the first nonzero share.
    let peers: Vec<Asn> = (0..415).map(|i| Asn(64_500 + i)).collect();
    let mut communities = vec![Community::BLACKHOLE];
    communities.extend(
        peers[10..15]
            .iter()
            .map(|&p| Community::block_peer(p).unwrap()),
    );
    let case = VisCase {
        updates: UpdateLog::from_updates(vec![
            targeted(0, "10.0.0.1/32", peers[0], communities),
            targeted(3, "10.0.0.2/32", peers[0], vec![Community::BLACKHOLE]),
        ]),
        peers,
        route_server: RS,
        period: Interval::new(Timestamp::EPOCH, Timestamp::EPOCH + TimeDelta::minutes(7)),
        step: TimeDelta::minutes(1),
    };
    let series = check_visibility(&case);
    let p = series[5];
    assert_eq!(p.active, 2);
    assert_eq!(p.max, 0.5);
    assert!(p.p99 > 0.0 && p.p99 < p.max, "p99 {} interpolates", p.p99);
    assert_eq!(p.median, 0.0);
}

#[test]
fn allow_lists_senders_and_wide_route_servers_hide_the_same_peers() {
    let peers: Vec<Asn> = (1..=6).map(|i| Asn(64_500 + i)).collect();
    let allow_list = |rs: Asn| {
        let mut c = vec![Community::BLACKHOLE];
        c.extend(Community::block_all(rs));
        c.extend(Community::announce_peer(rs, peers[2]));
        c
    };
    let block_sender = vec![
        Community::BLACKHOLE,
        Community::block_peer(peers[0]).unwrap(),
        Community::block_peer(peers[1]).unwrap(),
    ];
    for rs in [RS, RS_WIDE] {
        let case = VisCase {
            updates: UpdateLog::from_updates(vec![
                targeted(0, "10.0.0.1/32", peers[0], allow_list(rs)),
                targeted(1, "10.0.0.2/32", peers[0], block_sender.clone()),
                // A re-announcement of an open prefix keeps its first
                // distribution.
                targeted(2, "10.0.0.1/32", peers[3], vec![Community::BLACKHOLE]),
            ]),
            peers: peers.clone(),
            route_server: rs,
            period: Interval::new(Timestamp::EPOCH, Timestamp::EPOCH + TimeDelta::minutes(4)),
            step: TimeDelta::seconds(30),
        };
        let series = check_visibility(&case);
        let hidden = series.last().unwrap().max > 0.0;
        assert!(hidden, "route server {rs:?}: block_peer still applies");
    }
}

// ---------------------------------------------------------------------
// Pre-event windows: HashSet series, a verdict at every slot.
// ---------------------------------------------------------------------

fn oracle_series(
    cols: &ColumnarFlows,
    ids: &[u32],
    window: Interval,
    config: &PreEventConfig,
) -> Vec<[f64; FEATURES]> {
    let slots = config.slot_count();
    let mut packets = vec![0u32; slots];
    let mut flows: Vec<HashSet<(u32, u16, u16, u8)>> = vec![HashSet::new(); slots];
    let mut src_ips: Vec<HashSet<u32>> = vec![HashSet::new(); slots];
    let mut dst_ports: Vec<HashSet<u16>> = vec![HashSet::new(); slots];
    let mut non_tcp = vec![0u32; slots];
    for &id in ids {
        let i = id as usize;
        let offset = (cols.at(i) - window.start).as_millis();
        if offset < 0 {
            continue;
        }
        let idx = (offset / config.slot.as_millis()) as usize;
        if idx >= slots {
            continue;
        }
        packets[idx] += 1;
        flows[idx].insert((
            cols.src_ip_raw(i),
            cols.src_port(i),
            cols.dst_port(i),
            cols.protocol_raw(i),
        ));
        src_ips[idx].insert(cols.src_ip_raw(i));
        dst_ports[idx].insert(cols.dst_port(i));
        if cols.protocol(i) != Protocol::Tcp {
            non_tcp[idx] += 1;
        }
    }
    (0..slots)
        .map(|i| {
            [
                packets[i] as f64,
                flows[i].len() as f64,
                src_ips[i].len() as f64,
                dst_ports[i].len() as f64,
                non_tcp[i] as f64,
            ]
        })
        .collect()
}

fn oracle_event(
    event: &RtbhEvent,
    cols: &ColumnarFlows,
    ids: &[u32],
    config: &PreEventConfig,
) -> PreEventResult {
    let window = Interval::new(event.start() - config.pre_window, event.start());
    let series = oracle_series(cols, ids, window, config);
    let slots = series.len();
    let mut detectors: Vec<EwmaDetector> = (0..FEATURES)
        .map(|_| EwmaDetector::new(config.ewma))
        .collect();
    let mut anomalies = Vec::new();
    for (i, values) in series.iter().enumerate() {
        let mut level = 0u8;
        for (f, det) in detectors.iter_mut().enumerate() {
            if let Some(v) = det.push(values[f]) {
                if v.is_anomaly && v.value >= config.min_anomalous_value {
                    level += 1;
                }
            }
        }
        if level > 0 {
            let slot_start = window.start + TimeDelta::millis(config.slot.as_millis() * i as i64);
            anomalies.push(AnomalyHit {
                before_start: event.start() - slot_start,
                level,
            });
        }
    }
    let slots_with_data = series.iter().filter(|v| v[0] > 0.0).count();
    let packets: u64 = series.iter().map(|v| v[0] as u64).sum();
    let mut amplification = [None; FEATURES];
    let mut last_slot_is_max = false;
    if slots > 0 {
        let last = &series[slots - 1];
        for f in 0..FEATURES {
            let mean: f64 = series.iter().map(|v| v[f]).sum::<f64>() / slots as f64;
            if mean > 0.0 && last[f] > 0.0 {
                amplification[f] = Some(last[f] / mean);
            }
            let max = series.iter().map(|v| v[f]).fold(0.0f64, f64::max);
            if last[f] > 0.0 && last[f] >= max {
                last_slot_is_max = true;
            }
        }
    }
    let class = if packets == 0 {
        PreClass::NoData
    } else if anomalies
        .iter()
        .any(|a| a.before_start <= config.anomaly_horizon)
    {
        PreClass::DataAnomaly
    } else {
        PreClass::DataNoAnomaly
    };
    PreEventResult {
        event_id: event.id,
        slots_with_data,
        packets,
        anomalies,
        amplification,
        last_slot_is_max,
        class,
    }
}

/// The replaced `analyze_preevents`: the oracle per event over its window.
fn oracle_preevents(
    events: &[RtbhEvent],
    index: &SampleIndex,
    cols: &ColumnarFlows,
    config: &PreEventConfig,
) -> PreEventAnalysis {
    let per_event = events
        .iter()
        .map(|event| {
            let ids = index
                .prefix_id(event.prefix)
                .map(|id| index.towards(id))
                .unwrap_or(&[]);
            let in_window = cols.window_ids(ids, event.start() - config.pre_window, event.start());
            oracle_event(event, cols, in_window, config)
        })
        .collect();
    PreEventAnalysis {
        per_event,
        config: *config,
    }
}

fn arb_protocol(rng: &mut ChaChaRng) -> Protocol {
    match rng.gen_range(0..10u32) {
        0..=3 => Protocol::Tcp,
        4..=6 => Protocol::Udp,
        7 => Protocol::Icmp,
        _ => Protocol::Other(*[0u8, 2, 47, 255].choose(rng).unwrap()),
    }
}

fn arb_pre_config(rng: &mut ChaChaRng) -> PreEventConfig {
    let slot_ms = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(1..=20i64),
        1 => 60_000,
        _ => 300_000,
    };
    let slots = rng.gen_range(1..=48i64);
    let pre_window_ms = match rng.gen_range(0..5u32) {
        // Shorter than one slot: one slot that reaches past the window end.
        0 => rng.gen_range(1..=slot_ms),
        // Not a multiple of the slot: the last partial slot is dropped.
        1 if slot_ms > 1 => slots * slot_ms + rng.gen_range(1..slot_ms),
        _ => slots * slot_ms,
    };
    let slot_count = (pre_window_ms / slot_ms).max(1);
    let span = if rng.gen_ratio(1, 5) {
        // At least as many slots as the window: never warm.
        (slot_count + rng.gen_range(0..=3i64)) as usize
    } else {
        rng.gen_range(1..=slot_count) as usize
    };
    PreEventConfig {
        slot: TimeDelta::millis(slot_ms),
        pre_window: TimeDelta::millis(pre_window_ms),
        ewma: EwmaConfig {
            span,
            threshold_sd: *[0.0, 0.5, 2.5, 10.0].choose(rng).unwrap(),
        },
        anomaly_horizon: TimeDelta::millis(slot_ms * rng.gen_range(0..=4i64)),
        min_anomalous_value: *[-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 4.5].choose(rng).unwrap(),
    }
}

const PRE_PREFIXES: [&str; 2] = ["10.0.0.0/24", "10.0.1.7/32"];
const PRE_SOURCES: [&str; 4] = ["198.51.100.1", "198.51.100.2", "203.0.113.9", "8.8.8.8"];
const PRE_PORTS: [u16; 4] = [0, 53, 443, 65535];

struct PreCase {
    updates: UpdateLog,
    flows: FlowLog,
    events: Vec<RtbhEvent>,
    config: PreEventConfig,
}

fn pre_sample(rng: &mut ChaChaRng, at: i64, dst: Ipv4Addr, varied: bool) -> FlowSample {
    let pick = |rng: &mut ChaChaRng| *PRE_PORTS.choose(rng).unwrap();
    FlowSample {
        at: Timestamp::from_millis(at),
        src_mac: MacAddr::from_id(1),
        dst_mac: MacAddr::from_id(2),
        src_ip: if varied {
            Ipv4Addr::new(
                20,
                0,
                rng.gen_range(0..4u32) as u8,
                rng.gen_range(1..=250u32) as u8,
            )
        } else {
            PRE_SOURCES.choose(rng).unwrap().parse().unwrap()
        },
        dst_ip: dst,
        protocol: arb_protocol(rng),
        src_port: if varied { rng.gen() } else { pick(rng) },
        dst_port: if varied { rng.gen() } else { pick(rng) },
        packet_len: 100,
        fragment: false,
    }
}

fn arb_pre_case(rng: &mut ChaChaRng) -> PreCase {
    let config = arb_pre_config(rng);
    let slot = config.slot.as_millis();
    let pre = config.pre_window.as_millis();
    let prefixes: Vec<Prefix> = PRE_PREFIXES.iter().map(|p| p.parse().unwrap()).collect();
    let dst_in = |rng: &mut ChaChaRng, p: Prefix| {
        if p.is_host() {
            p.network()
        } else {
            Ipv4Addr::from_u32(p.network().to_u32() | rng.gen_range(0..256u32))
        }
    };
    let updates = prefixes
        .iter()
        .map(|&prefix| BgpUpdate {
            at: Timestamp::from_millis(-10 * pre - 1),
            peer: Asn(9),
            prefix,
            origin: Asn(9),
            kind: UpdateKind::Announce,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        })
        .collect();

    let mut events = Vec::new();
    let mut samples = Vec::new();
    for _ in 0..rng.gen_range(1..=4usize) {
        let prefix = *prefixes.choose(rng).unwrap();
        let start = rng.gen_range(-3..=3i64) * pre + rng.gen_range(-slot..=slot);
        let ws = start - pre;
        events.push(RtbhEvent {
            id: events.len(),
            prefix,
            spans: vec![Interval::new(
                Timestamp::from_millis(start),
                Timestamp::from_millis(start + slot),
            )],
            trigger_peer: Asn(9),
            origin: Asn(9),
            open_ended: false,
        });
        if rng.gen_ratio(1, 5) {
            // An empty window.
            continue;
        }
        // Background rows anywhere near the window, plus its edges.
        for _ in 0..rng.gen_range(0..=40usize) {
            let at = ws - slot + rng.gen_range(0..=pre + 2 * slot);
            let dst = dst_in(rng, prefix);
            samples.push(pre_sample(rng, at, dst, false));
        }
        for at in [ws, ws - 1, start - 1, start, ws + slot, ws + slot - 1] {
            if rng.gen_bool(0.5) {
                let dst = dst_in(rng, prefix);
                samples.push(pre_sample(rng, at, dst, false));
            }
        }
        // A burst right after warm-up, or in the last slot, of a size at,
        // just below or well above the anomaly floor.
        let slot_count = config.slot_count() as i64;
        let burst_slot = if rng.gen_bool(0.5) {
            (config.ewma.span as i64).min(slot_count - 1)
        } else {
            slot_count - 1
        };
        let floor = config.min_anomalous_value.max(0.0).ceil() as usize;
        let size = *[floor, floor.saturating_sub(1), floor + 1, 25]
            .choose(rng)
            .unwrap();
        let varied = rng.gen_bool(0.5);
        for _ in 0..size {
            let at = ws + burst_slot * slot + rng.gen_range(0..slot);
            let dst = dst_in(rng, prefix);
            samples.push(pre_sample(rng, at, dst, varied));
        }
    }
    PreCase {
        updates: UpdateLog::from_updates(updates),
        flows: FlowLog::from_samples(samples),
        events,
        config,
    }
}

#[test]
fn preevent_kernel_matches_the_hashset_series_on_generated_windows() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stages_diff",
        test_name: "preevent_kernel_matches_the_hashset_series_on_generated_windows",
        base_seed: seeds::FUZZ_STAGES_PREEVENT,
    };
    let mut classes = BTreeMap::new();
    target.run(300, |_, rng| {
        let case = arb_pre_case(rng);
        let capacity = if rng.gen_bool(0.5) { 0 } else { 64 };
        let enriched = ColumnarFlows::build_enriched_with_capacity(
            &case.updates,
            &case.flows,
            &MacResolver::from_map(BTreeMap::new()),
            &OriginTable::build(&[]),
            Timestamp::from_millis(i64::MAX / 2),
            1,
            capacity,
        );
        let cols = &enriched.columns;
        let index =
            SampleIndex::from_columns(enriched.blackholes, enriched.blackhole_prefixes, cols, 1);
        // The stage: one scratch across every event of the case.
        let analysis = analyze_preevents(&case.events, &index, cols, &case.config);
        let expected = oracle_preevents(&case.events, &index, cols, &case.config);
        assert_same_json(&analysis, &expected, "pre-event analysis");
        for r in &analysis.per_event {
            *classes.entry(format!("{:?}", r.class)).or_insert(0usize) += 1;
        }
        // One event over every row, inside its window or not.
        let all: Vec<u32> = (0..cols.len() as u32).collect();
        for event in &case.events {
            assert_same_json(
                &analyze_event(event, cols, &all, &case.config),
                &oracle_event(event, cols, &all, &case.config),
                "pre-event result over all rows",
            );
        }
    });
    assert_eq!(
        classes.len(),
        3,
        "every Table 2 class is reached: {classes:?}"
    );
}

// ---------------------------------------------------------------------
// The stream backfill: a scan of every kept sample at each run's start.
// ---------------------------------------------------------------------

/// The replaced backfill: every kept sample, per-slot `HashSet`s, a
/// verdict at every slot.
fn oracle_backfill(
    kept: &[FlowSample],
    pcfg: &PreEventConfig,
    prefix: Prefix,
    start: Timestamp,
) -> bool {
    let ws = (start - pcfg.pre_window).as_millis();
    let we = start.as_millis();
    let slots = pcfg.slot_count();
    let slot_ms = pcfg.slot.as_millis();
    let mut packets = vec![0u32; slots];
    let mut flows: Vec<HashSet<(u32, u16, u16, u8)>> = vec![HashSet::new(); slots];
    let mut src_ips: Vec<HashSet<u32>> = vec![HashSet::new(); slots];
    let mut dst_ports: Vec<HashSet<u16>> = vec![HashSet::new(); slots];
    let mut non_tcp = vec![0u32; slots];
    for s in kept {
        let t = s.at.as_millis();
        if t < ws || t >= we || !prefix.contains_addr(s.dst_ip) {
            continue;
        }
        let idx = ((t - ws) / slot_ms) as usize;
        if idx >= slots {
            continue;
        }
        let src = s.src_ip.to_u32();
        packets[idx] += 1;
        flows[idx].insert((src, s.src_port, s.dst_port, s.protocol.number()));
        src_ips[idx].insert(src);
        dst_ports[idx].insert(s.dst_port);
        if Protocol::from_number(s.protocol.number()) != Protocol::Tcp {
            non_tcp[idx] += 1;
        }
    }
    let mut detectors: Vec<EwmaDetector> = (0..FEATURES)
        .map(|_| EwmaDetector::new(pcfg.ewma))
        .collect();
    let mut hit = false;
    let mut total_packets = 0u64;
    for i in 0..slots {
        total_packets += packets[i] as u64;
        let values = [
            packets[i] as f64,
            flows[i].len() as f64,
            src_ips[i].len() as f64,
            dst_ports[i].len() as f64,
            non_tcp[i] as f64,
        ];
        let before = TimeDelta::millis(we - (ws + slot_ms * i as i64));
        for (f, det) in detectors.iter_mut().enumerate() {
            if let Some(v) = det.push(values[f]) {
                if v.is_anomaly
                    && v.value >= pcfg.min_anomalous_value
                    && before <= pcfg.anomaly_horizon
                {
                    hit = true;
                }
            }
        }
    }
    total_packets > 0 && hit
}

/// A corpus template whose static context matches `streamgen`'s domain.
fn feed_template(minutes: i64) -> Corpus {
    Corpus {
        period: Interval::new(
            Timestamp::EPOCH,
            Timestamp::EPOCH + TimeDelta::minutes(minutes),
        ),
        sampling_rate: 10_000,
        route_server_asn: Asn(6695),
        updates: UpdateLog::new(),
        flows: FlowLog::new(),
        members: (1..=8u32)
            .map(|id| MemberInfo {
                asn: Asn(64500 + id),
                macs: vec![MacAddr::from_id(id)],
            })
            .collect(),
        registry: Registry::new(),
        internal_macs: vec![MacAddr::from_id(0xF00)],
        routes: vec![("198.51.100.0/24".parse().unwrap(), Asn(64501))],
        caches: Default::default(),
    }
}

fn to_event(item: &FeedItem) -> StreamEvent {
    match item {
        FeedItem::Update(u) => StreamEvent::Update(u.clone()),
        FeedItem::Sample(s) => StreamEvent::Sample(*s),
    }
}

#[test]
fn stream_anomaly_flags_match_the_ring_scan_backfill() {
    let feed_config = FeedConfig {
        minutes: 8 * 60,
        runs: 8,
        samples: 600,
    };
    let template = feed_template(feed_config.minutes);
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stages_diff",
        test_name: "stream_anomaly_flags_match_the_ring_scan_backfill",
        base_seed: seeds::FUZZ_STAGES_STREAM,
    };
    let (mut flagged, mut verdicts) = (0usize, 0usize);
    target.run_capped(30, 400, |seed, rng| {
        let slot = TimeDelta::minutes(rng.gen_range(1..=5i64));
        let slots = rng.gen_range(6..=30i64);
        let pcfg = PreEventConfig {
            slot,
            pre_window: TimeDelta::millis(slot.as_millis() * slots),
            ewma: EwmaConfig {
                span: if rng.gen_bool(0.3) {
                    slots as usize - 1
                } else {
                    rng.gen_range(2..=slots as usize)
                },
                threshold_sd: 2.5,
            },
            anomaly_horizon: TimeDelta::millis(slot.as_millis() * rng.gen_range(1..=3i64)),
            min_anomalous_value: *[1.0, 2.0, 4.0].choose(rng).unwrap(),
        };
        // Bursts towards some announced prefixes, just before their runs.
        let mut feed = arb_feed(rng, feed_config);
        let announces: Vec<(Timestamp, Prefix)> = feed
            .iter()
            .filter_map(|item| match item {
                FeedItem::Update(u) if u.kind == UpdateKind::Announce => Some((u.at, u.prefix)),
                _ => None,
            })
            .collect();
        for (at, prefix) in announces {
            if rng.gen_bool(0.6) {
                let lead = TimeDelta::millis(rng.gen_range(1..=2 * slot.as_millis()));
                let size = rng.gen_range(2..=40usize);
                let burst = burst_at(rng, at - lead, size, prefix);
                feed = splice_sorted(&feed, burst);
            }
            // Rows exactly at the window start (inside) and 1 ms before it
            // (outside): with a span as long as the window they still
            // weigh on the last slots' mean and SD.
            if rng.gen_bool(0.3) {
                let ws = at - pcfg.pre_window;
                for edge in [ws, ws - TimeDelta::millis(1)] {
                    let size = rng.gen_range(1..=40usize);
                    let burst = burst_at(rng, edge, size, prefix);
                    feed = splice_sorted(&feed, burst);
                }
            }
        }
        let mut analyzer = AnalyzerConfig::for_corpus(&template).with_workers(1);
        analyzer.preevent = pcfg;
        analyzer.chunk_capacity = [0usize, 64][rng.gen_range(0..2usize)];
        let config = StreamConfig {
            analyzer,
            lateness: TimeDelta::ZERO,
            retention: Retention::Unbounded,
        };
        let mut stream = StreamAnalyzer::new(&template, config);
        stream.push_batch(feed.iter().map(to_event));
        stream.finish();
        // The feed is sorted and nothing is late, so the samples that
        // survive cleaning (no internal MAC) are applied in feed order.
        let kept: Vec<FlowSample> = feed
            .iter()
            .filter_map(|item| match item {
                FeedItem::Sample(s) => Some(*s),
                FeedItem::Update(_) => None,
            })
            .filter(|s| {
                !template.internal_macs.contains(&s.src_mac)
                    && !template.internal_macs.contains(&s.dst_mac)
            })
            .collect();
        for v in stream.journal() {
            let expected = oracle_backfill(&kept, &pcfg, v.prefix, v.start);
            assert_eq!(
                v.anomaly, expected,
                "verdict {} ({}) under seed {seed:#x}",
                v.seq, v.prefix
            );
            flagged += usize::from(v.anomaly);
            verdicts += 1;
        }
    });
    assert!(
        flagged > 0 && flagged < verdicts,
        "{flagged} of {verdicts} flagged"
    );
}

// ---------------------------------------------------------------------
// Filtering: three tree inserts per during-event sample.
// ---------------------------------------------------------------------

fn oracle_filtering(
    events: &[RtbhEvent],
    index: &SampleIndex,
    cols: &ColumnarFlows,
    preevents: &PreEventAnalysis,
) -> FilteringAnalysis {
    let mut per_event = Vec::new();
    let mut handover_participation: BTreeMap<Asn, usize> = BTreeMap::new();
    let mut origin_participation: BTreeMap<Asn, usize> = BTreeMap::new();
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
            continue;
        }
        let mut emu = FilterEmulation {
            event_id: event.id,
            packets: 0,
            filterable: 0,
            handover_ases: BTreeSet::new(),
            origin_ases: BTreeSet::new(),
            unique_sources: 0,
        };
        let mut sources = BTreeSet::new();
        let mut udp_like = 0u64;
        for &id in during {
            let i = id as usize;
            emu.packets += 1;
            if AmplificationProtocol::classify(cols.protocol(i), cols.src_port(i), cols.fragment(i))
                .is_some()
            {
                emu.filterable += 1;
            }
            if cols.protocol(i) == Protocol::Udp || cols.fragment(i) {
                udp_like += 1;
            }
            if let Some(h) = cols.ingress(i) {
                emu.handover_ases.insert(h);
            }
            if let Some(o) = cols.origin(i) {
                emu.origin_ases.insert(o);
            }
            sources.insert(cols.src_ip(i));
        }
        emu.unique_sources = sources.len();
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

const FILTER_PREFIXES: [&str; 3] = ["10.0.0.0/24", "10.0.0.7/32", "10.1.0.0/30"];
const AMP_PORTS: [u16; 5] = [19, 53, 123, 1900, 11211];
const HOUR_MS: i64 = 3_600_000;

fn result_of(event_id: usize, class: PreClass) -> PreEventResult {
    PreEventResult {
        event_id,
        slots_with_data: 0,
        packets: 0,
        anomalies: Vec::new(),
        amplification: [None; FEATURES],
        last_slot_is_max: false,
        class,
    }
}

#[test]
fn filtering_matches_the_tree_inserts_on_generated_events() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stages_diff",
        test_name: "filtering_matches_the_tree_inserts_on_generated_events",
        base_seed: seeds::FUZZ_STAGES_FILTERING,
    };
    // Member MACs 1..=4 resolve to handover ASes; 5 and 6 are unknown.
    let resolver = MacResolver::from_map(
        (1..=4u32)
            .map(|i| (MacAddr::from_id(i), Asn(64_500 + i)))
            .collect(),
    );
    // Sources in 198.51.100.192/26 and 192.0.2.0/24 have no origin.
    let origins = OriginTable::build(&[
        ("198.51.100.0/25".parse().unwrap(), Asn(100)),
        ("198.51.100.128/26".parse().unwrap(), Asn(101)),
        ("203.0.113.0/24".parse().unwrap(), Asn(102)),
    ]);
    let mut emulated = 0usize;
    target.run(300, |_, rng| {
        let prefixes: Vec<Prefix> = FILTER_PREFIXES.iter().map(|p| p.parse().unwrap()).collect();
        let updates: Vec<BgpUpdate> = prefixes
            .iter()
            .map(|&prefix| BgpUpdate {
                at: Timestamp::EPOCH,
                peer: Asn(9),
                prefix,
                origin: Asn(9),
                kind: UpdateKind::Announce,
                communities: vec![Community::BLACKHOLE],
                next_hop: Ipv4Addr::new(198, 51, 100, 66),
            })
            .collect();
        let all_tcp = rng.gen_ratio(1, 6);
        let fragment_share = *[0.0, 0.1, 0.9].choose(rng).unwrap();
        let samples: Vec<FlowSample> = (0..rng.gen_range(0..=200usize))
            .map(|_| {
                let prefix = *prefixes.choose(rng).unwrap();
                let dst = if prefix.is_host() {
                    prefix.network()
                } else {
                    Ipv4Addr::from_u32(prefix.network().to_u32() | rng.gen_range(0..4u32))
                };
                let protocol = if all_tcp {
                    Protocol::Tcp
                } else {
                    arb_protocol(rng)
                };
                let fragment = rng.gen_bool(fragment_share);
                FlowSample {
                    at: Timestamp::from_millis(rng.gen_range(0..6 * HOUR_MS)),
                    src_mac: MacAddr::from_id(rng.gen_range(1..=6u32)),
                    dst_mac: MacAddr::BLACKHOLE,
                    src_ip: match rng.gen_range(0..3u32) {
                        0 => Ipv4Addr::new(198, 51, 100, rng.gen_range(0..=255u32) as u8),
                        1 => Ipv4Addr::new(203, 0, 113, rng.gen_range(0..8u32) as u8),
                        _ => Ipv4Addr::new(192, 0, 2, rng.gen_range(0..8u32) as u8),
                    },
                    dst_ip: dst,
                    protocol,
                    src_port: if fragment {
                        0
                    } else if rng.gen_bool(0.6) {
                        *AMP_PORTS.choose(rng).unwrap()
                    } else {
                        rng.gen()
                    },
                    dst_port: rng.gen(),
                    packet_len: 500,
                    fragment,
                }
            })
            .collect();
        let mut events = Vec::new();
        for &prefix in &prefixes {
            for _ in 0..rng.gen_range(0..=3usize) {
                let start = rng.gen_range(0..6 * HOUR_MS);
                // Some events last a few milliseconds: fewer than five rows.
                let len = if rng.gen_ratio(1, 4) {
                    rng.gen_range(1..=50i64)
                } else {
                    rng.gen_range(1..=2 * HOUR_MS)
                };
                let mut spans = vec![Interval::new(
                    Timestamp::from_millis(start),
                    Timestamp::from_millis(start + len),
                )];
                if rng.gen_ratio(1, 3) {
                    let next = start + len + rng.gen_range(0..=HOUR_MS);
                    spans.push(Interval::new(
                        Timestamp::from_millis(next),
                        Timestamp::from_millis(next + rng.gen_range(1..=HOUR_MS)),
                    ));
                }
                events.push(RtbhEvent {
                    id: events.len(),
                    prefix,
                    spans,
                    trigger_peer: Asn(9),
                    origin: Asn(9),
                    open_ended: false,
                });
            }
        }
        // Random classes; some events have no pre-event result at all.
        let mut per_event: Vec<PreEventResult> = events
            .iter()
            .map(|e| {
                let class = if rng.gen_ratio(3, 4) {
                    PreClass::DataAnomaly
                } else {
                    PreClass::DataNoAnomaly
                };
                result_of(e.id, class)
            })
            .collect();
        per_event.truncate(rng.gen_range(0..=per_event.len()));
        let preevents = PreEventAnalysis {
            per_event,
            config: PreEventConfig::PAPER,
        };
        let enriched = ColumnarFlows::build_enriched_with_capacity(
            &UpdateLog::from_updates(updates),
            &FlowLog::from_samples(samples),
            &resolver,
            &origins,
            Timestamp::from_millis(7 * HOUR_MS),
            1,
            if rng.gen_bool(0.5) { 0 } else { 64 },
        );
        let cols = &enriched.columns;
        let index =
            SampleIndex::from_columns(enriched.blackholes, enriched.blackhole_prefixes, cols, 1);
        let analysis = analyze_filtering(&events, &index, cols, &preevents);
        let expected = oracle_filtering(&events, &index, cols, &preevents);
        assert_same_json(&analysis, &expected, "filtering analysis");
        emulated += analysis.per_event.len();
    });
    assert!(emulated > 0, "no generated event qualified");
}

// ---------------------------------------------------------------------
// Protocols: a tree entry per amplification-matched sample.
// ---------------------------------------------------------------------

/// The replaced `analyze_event_traffic`: per during-event sample, the
/// protocol slot and a `BTreeMap` entry for the catalogue entry a scan
/// finds (fragments first, then UDP source ports).
fn oracle_protocols(
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
            let ids = index
                .prefix_id(event.prefix)
                .map(|id| index.towards(id))
                .unwrap_or(&[]);
            let mut traffic = EventTraffic {
                event_id: event.id,
                packets: 0,
                by_protocol: [0; 4],
                amplification: BTreeMap::new(),
                preceded_by_anomaly,
            };
            for &id in cols.window_ids(ids, cover.start, cover.end) {
                let i = id as usize;
                traffic.packets += 1;
                let slot = match cols.protocol(i) {
                    Protocol::Udp => 0,
                    Protocol::Tcp => 1,
                    Protocol::Icmp => 2,
                    Protocol::Other(_) => 3,
                };
                traffic.by_protocol[slot] += 1;
                let hit = if cols.fragment(i) {
                    Some(AmplificationProtocol::Fragmentation)
                } else if cols.protocol(i) != Protocol::Udp {
                    None
                } else {
                    AMPLIFICATION_PROTOCOLS.iter().copied().find(|p| {
                        *p != AmplificationProtocol::Fragmentation
                            && p.source_port() == cols.src_port(i)
                    })
                };
                if let Some(p) = hit {
                    *traffic.amplification.entry(p).or_insert(0) += 1;
                }
            }
            traffic
        })
        .collect();
    ProtocolAnalysis { per_event }
}

#[test]
fn protocols_match_the_tree_tally_on_generated_events() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stages_diff",
        test_name: "protocols_match_the_tree_tally_on_generated_events",
        base_seed: seeds::FUZZ_STAGES_PROTOCOLS,
    };
    // Every catalogue source port (Fragmentation's is 0), plus the ends
    // of the port range.
    let ports: Vec<u16> = AMPLIFICATION_PROTOCOLS
        .iter()
        .map(|p| p.source_port())
        .chain([0, 1, 65_535])
        .collect();
    let resolver = MacResolver::from_map(BTreeMap::from([(MacAddr::from_id(1), Asn(64_501))]));
    let (mut matched, mut empty) = (0usize, 0usize);
    target.run(300, |_, rng| {
        let prefixes: Vec<Prefix> = FILTER_PREFIXES.iter().map(|p| p.parse().unwrap()).collect();
        let updates: Vec<BgpUpdate> = prefixes
            .iter()
            .map(|&prefix| BgpUpdate {
                at: Timestamp::EPOCH,
                peer: Asn(9),
                prefix,
                origin: Asn(9),
                kind: UpdateKind::Announce,
                communities: vec![Community::BLACKHOLE],
                next_hop: Ipv4Addr::new(198, 51, 100, 66),
            })
            .collect();
        let fragment_share = *[0.0, 0.2, 0.9].choose(rng).unwrap();
        let samples: Vec<FlowSample> = (0..rng.gen_range(0..=200usize))
            .map(|_| {
                let prefix = *prefixes.choose(rng).unwrap();
                let dst = Ipv4Addr::from_u32(prefix.network().to_u32() | rng.gen_range(0..2u32));
                // Fragments of every protocol, not only UDP ones.
                let fragment = rng.gen_bool(fragment_share);
                FlowSample {
                    at: Timestamp::from_millis(rng.gen_range(0..6 * HOUR_MS)),
                    src_mac: MacAddr::from_id(1),
                    dst_mac: MacAddr::BLACKHOLE,
                    src_ip: Ipv4Addr::new(203, 0, 113, rng.gen_range(0..8u32) as u8),
                    dst_ip: dst,
                    protocol: arb_protocol(rng),
                    src_port: if rng.gen_bool(0.7) {
                        *ports.choose(rng).unwrap()
                    } else {
                        rng.gen()
                    },
                    dst_port: *ports.choose(rng).unwrap(),
                    packet_len: 500,
                    fragment,
                }
            })
            .collect();
        let mut events = Vec::new();
        // Unannounced prefixes too: their events have no index list.
        for prefix in prefixes
            .iter()
            .copied()
            .chain(["10.2.0.0/24".parse().unwrap()])
        {
            for _ in 0..rng.gen_range(0..=3usize) {
                // Some coverages lie past every sample.
                let start = rng.gen_range(0..8 * HOUR_MS);
                let len = if rng.gen_ratio(1, 4) {
                    rng.gen_range(1..=50i64)
                } else {
                    rng.gen_range(1..=2 * HOUR_MS)
                };
                let mut spans = vec![Interval::new(
                    Timestamp::from_millis(start),
                    Timestamp::from_millis(start + len),
                )];
                if rng.gen_ratio(1, 3) {
                    let next = start + len + rng.gen_range(0..=HOUR_MS);
                    spans.push(Interval::new(
                        Timestamp::from_millis(next),
                        Timestamp::from_millis(next + rng.gen_range(1..=HOUR_MS)),
                    ));
                }
                events.push(RtbhEvent {
                    id: events.len(),
                    prefix,
                    spans,
                    trigger_peer: Asn(9),
                    origin: Asn(9),
                    open_ended: false,
                });
            }
        }
        // Random classes, some with an anomaly inside the horizon; some
        // events have no pre-event result at all.
        let mut per_event: Vec<PreEventResult> = events
            .iter()
            .map(|e| {
                let mut r = result_of(
                    e.id,
                    *[PreClass::DataAnomaly, PreClass::DataNoAnomaly]
                        .choose(rng)
                        .unwrap(),
                );
                if rng.gen_bool(0.5) {
                    r.anomalies.push(AnomalyHit {
                        before_start: TimeDelta::minutes(rng.gen_range(0..=120i64)),
                        level: 1,
                    });
                }
                r
            })
            .collect();
        per_event.truncate(rng.gen_range(0..=per_event.len()));
        let preevents = PreEventAnalysis {
            per_event,
            config: PreEventConfig::PAPER,
        };
        let enriched = ColumnarFlows::build_enriched_with_capacity(
            &UpdateLog::from_updates(updates),
            &FlowLog::from_samples(samples),
            &resolver,
            &OriginTable::build(&[]),
            Timestamp::from_millis(7 * HOUR_MS),
            1,
            if rng.gen_bool(0.5) { 0 } else { 64 },
        );
        let cols = &enriched.columns;
        let index =
            SampleIndex::from_columns(enriched.blackholes, enriched.blackhole_prefixes, cols, 1);
        let analysis = analyze_event_traffic(&events, &index, cols, &preevents);
        let expected = oracle_protocols(&events, &index, cols, &preevents);
        assert_same_json(&analysis, &expected, "protocol analysis");
        matched += analysis
            .per_event
            .iter()
            .filter(|e| !e.amplification.is_empty())
            .count();
        empty += analysis.per_event.iter().filter(|e| e.packets == 0).count();
    });
    assert!(matched > 0 && empty > 0, "{matched} matched, {empty} empty");
}

// ---------------------------------------------------------------------
// Acceptance: up to three tree entries per blackhole-active row.
// ---------------------------------------------------------------------

fn oracle_acceptance(cols: &ColumnarFlows) -> AcceptanceAnalysis {
    fn add(t: &mut DropTally, dropped: bool, len: u32) {
        if dropped {
            t.dropped_packets += 1;
            t.dropped_bytes += u64::from(len);
        } else {
            t.forwarded_packets += 1;
            t.forwarded_bytes += u64::from(len);
        }
    }
    let mut a = AcceptanceAnalysis {
        by_length: BTreeMap::new(),
        by_prefix: BTreeMap::new(),
        by_source_as_32: BTreeMap::new(),
        samples_during_blackhole: 0,
    };
    for i in 0..cols.len() {
        let Some((prefix, true)) = cols.active_prefix(i) else {
            continue;
        };
        let (dropped, len) = (cols.is_dropped(i), cols.packet_len(i));
        a.samples_during_blackhole += 1;
        add(a.by_length.entry(prefix.len()).or_default(), dropped, len);
        add(a.by_prefix.entry(prefix).or_default(), dropped, len);
        if prefix.is_host() {
            if let Some(source) = cols.ingress(i) {
                add(a.by_source_as_32.entry(source).or_default(), dropped, len);
            }
        }
    }
    a
}

/// Blackholes for the acceptance target: nested /24 ⊃ /32s, a /30, a lone
/// /32, and a /24 whose only interval lies after every sample.
const ACCEPT_PREFIXES: [&str; 6] = [
    "10.0.0.0/24",
    "10.0.0.7/32",
    "10.0.0.8/32",
    "10.1.0.0/30",
    "10.2.0.9/32",
    "10.9.0.0/24",
];

#[test]
fn acceptance_matches_the_tree_entries_on_generated_columns() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stages_diff",
        test_name: "acceptance_matches_the_tree_entries_on_generated_columns",
        base_seed: seeds::FUZZ_STAGES_ACCEPTANCE,
    };
    // Member MACs 1..=4 resolve to ingress ASes; 5 and 6 are unknown.
    let resolver = MacResolver::from_map(
        (1..=4u32)
            .map(|i| (MacAddr::from_id(i), Asn(64_500 + i)))
            .collect(),
    );
    let (mut unknown_32, mut idle) = (0usize, 0usize);
    target.run(300, |_, rng| {
        let prefixes: Vec<Prefix> = ACCEPT_PREFIXES.iter().map(|p| p.parse().unwrap()).collect();
        let mut updates = Vec::new();
        for (k, &prefix) in prefixes.iter().enumerate() {
            let update = |at: i64, kind| BgpUpdate {
                at: Timestamp::from_millis(at),
                peer: Asn(9),
                prefix,
                origin: Asn(9),
                kind,
                communities: vec![Community::BLACKHOLE],
                next_hop: Ipv4Addr::new(198, 51, 100, 66),
            };
            if k + 1 == ACCEPT_PREFIXES.len() {
                // Holds an interval, after the last sample.
                updates.push(update(7 * HOUR_MS, UpdateKind::Announce));
                updates.push(update(7 * HOUR_MS + 1, UpdateKind::Withdraw));
                continue;
            }
            // Alternating announcements and withdrawals, some at the same
            // instant (a degenerate interval), the last one maybe open.
            let mut at = rng.gen_range(-HOUR_MS..HOUR_MS);
            for n in 0..rng.gen_range(0..=6usize) {
                let kind = if n % 2 == 0 {
                    UpdateKind::Announce
                } else {
                    UpdateKind::Withdraw
                };
                updates.push(update(at, kind));
                at += if rng.gen_ratio(1, 5) {
                    0
                } else {
                    rng.gen_range(1..=2 * HOUR_MS)
                };
            }
        }
        let mut samples: Vec<FlowSample> = (0..rng.gen_range(0..=300usize))
            .map(|_| {
                let prefix = *prefixes.choose(rng).unwrap();
                let dst = if prefix.is_host() {
                    prefix.network()
                } else {
                    Ipv4Addr::from_u32(prefix.network().to_u32() | rng.gen_range(0..4u32))
                };
                FlowSample {
                    at: Timestamp::from_millis(rng.gen_range(0..6 * HOUR_MS)),
                    src_mac: MacAddr::from_id(rng.gen_range(1..=6u32)),
                    dst_mac: if rng.gen_bool(0.5) {
                        MacAddr::BLACKHOLE
                    } else {
                        MacAddr::from_id(rng.gen_range(1..=4u32))
                    },
                    src_ip: Ipv4Addr::new(198, 51, 100, 1),
                    dst_ip: dst,
                    protocol: arb_protocol(rng),
                    src_port: rng.gen(),
                    dst_port: rng.gen(),
                    packet_len: rng.gen_range(40..=1500u16),
                    fragment: false,
                }
            })
            .collect();
        samples.sort_by_key(|s| s.at);
        let enriched = ColumnarFlows::build_enriched_with_capacity(
            &UpdateLog::from_updates(updates),
            &FlowLog::from_samples(samples),
            &resolver,
            &OriginTable::build(&[]),
            Timestamp::from_millis(6 * HOUR_MS),
            rng.gen_range(1..=3),
            if rng.gen_bool(0.5) { 0 } else { 64 },
        );
        let cols = &enriched.columns;
        let expected = oracle_acceptance(cols);
        for workers in 1..=3 {
            let what = format!("acceptance at {workers} workers");
            assert_same_json(&analyze_acceptance(cols, workers), &expected, &what);
        }
        unknown_32 += (0..cols.len())
            .filter(|&i| {
                cols.active_prefix(i)
                    .is_some_and(|(p, active)| active && p.is_host())
                    && cols.ingress(i).is_none()
            })
            .count();
        let last: Prefix = ACCEPT_PREFIXES[5].parse().unwrap();
        idle += usize::from((0..cols.len()).any(|i| cols.active_prefix(i) == Some((last, false))));
    });
    assert!(unknown_32 > 0, "no active /32 row had an unknown ingress");
    assert!(
        idle > 0,
        "no row met the interval-holding prefix without an active row"
    );
}

// ---------------------------------------------------------------------
// All of them on simulated corpora.
// ---------------------------------------------------------------------

#[test]
fn stage_kernels_match_their_oracles_on_simulated_corpora() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stages_diff",
        test_name: "stage_kernels_match_their_oracles_on_simulated_corpora",
        base_seed: seeds::FUZZ_STAGES_CORPUS,
    };
    // One case simulates and prepares a whole corpus, so even the deep
    // fuzz job runs only a few.
    target.run_capped(2, 8, |_, rng| {
        let mut scenario = ScenarioConfig::tiny();
        scenario.seed = rng.next_u64();
        let corpus = rtbh_sim::run(&scenario).corpus;
        let mut config = AnalyzerConfig::for_corpus(&corpus);
        config.visibility_step = TimeDelta::millis(rng.gen_range(60_000..=3_600_000i64));
        config.preevent.ewma.span = rng.gen_range(1..=400usize);
        config.preevent.min_anomalous_value = *[0.0, 1.0, 4.0].choose(rng).unwrap();
        let analyzer = Analyzer::new(corpus, config);
        let corpus = analyzer.corpus();
        assert_same_json(
            &analyzer.visibility(),
            &oracle_visibility(
                &corpus.updates,
                corpus.member_asns(),
                corpus.route_server_asn,
                corpus.period,
                config.visibility_step,
            ),
            "visibility on a simulated corpus",
        );
        let preevents = analyzer.preevents();
        assert_same_json(
            &preevents,
            &oracle_preevents(
                analyzer.events(),
                analyzer.index(),
                analyzer.columns(),
                &config.preevent,
            ),
            "pre-events on a simulated corpus",
        );
        assert_same_json(
            &analyzer.filtering(&preevents),
            &oracle_filtering(
                analyzer.events(),
                analyzer.index(),
                analyzer.columns(),
                &preevents,
            ),
            "filtering on a simulated corpus",
        );
        assert_same_json(
            &analyzer.protocols(&preevents),
            &oracle_protocols(
                analyzer.events(),
                analyzer.index(),
                analyzer.columns(),
                &preevents,
            ),
            "protocols on a simulated corpus",
        );
        let expected = oracle_acceptance(analyzer.columns());
        for workers in 1..=3 {
            assert_same_json(
                &analyze_acceptance(analyzer.columns(), workers),
                &expected,
                &format!("acceptance at {workers} workers on a simulated corpus"),
            );
        }
    });
}
