//! Differential fuzz: the per-prefix sorted sweep of
//! `rtbh_core::hosts::analyze_hosts` against the per-sample tree-map
//! accumulator it replaced, which lives on only here as the oracle — one
//! `BTreeMap` entry per host address, with `BTreeSet`s of days and ports
//! and a day → service → packets map.
//!
//! Generated logs put hosts where a grouping or counting slip would show:
//! nested /24 ⊃ /32 blackholes, hosts seen only incoming or only outgoing,
//! traffic between two blackholed hosts, ICMP and `Other(n)` rows (which
//! carry no service), small port pools so per-day counts tie across
//! TCP/UDP and across ports, ports 0 and 65535, days crossing midnight,
//! pre-epoch timestamps, samples exactly at an event's `start − reaction`
//! and end (±1 ms), and prefixes whose rows all fall inside an exclusion
//! window. A second target runs both kernels on simulated corpora under
//! fuzzed host configurations.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use std::collections::{BTreeMap, BTreeSet};

use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
use rtbh_core::columns::ColumnarFlows;
use rtbh_core::events::RtbhEvent;
use rtbh_core::hosts::{analyze_hosts, HostAnalysis, HostClass, HostConfig, HostRecord};
use rtbh_core::index::{MacResolver, OriginTable, SampleIndex};
use rtbh_core::pipeline::AnalyzerConfig;
use rtbh_core::Analyzer;
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_net::{
    Asn, Community, Interval, Ipv4Addr, MacAddr, Prefix, Protocol, Service, TimeDelta, Timestamp,
};
use rtbh_rng::{ChaChaRng, Rng, SliceRandom};
use rtbh_sim::ScenarioConfig;
use rtbh_stats::radviz_project;
use rtbh_testkit::FuzzTarget;

/// The oracle's working accumulator per host.
#[derive(Default)]
struct HostAccum {
    days_in: BTreeSet<i64>,
    days_out: BTreeSet<i64>,
    src_in: BTreeSet<u16>,
    src_out: BTreeSet<u16>,
    dst_in: BTreeSet<u16>,
    dst_out: BTreeSet<u16>,
    /// day → service → packets (incoming only).
    daily_services: BTreeMap<i64, BTreeMap<Service, u32>>,
}

fn exclusion_windows(events: &[RtbhEvent], reaction: TimeDelta) -> BTreeMap<Prefix, Vec<Interval>> {
    let mut map: BTreeMap<Prefix, Vec<Interval>> = BTreeMap::new();
    for e in events {
        map.entry(e.prefix)
            .or_default()
            .push(Interval::new(e.start() - reaction, e.end()));
    }
    for windows in map.values_mut() {
        windows.sort_by_key(|w| w.start);
    }
    map
}

fn in_windows(windows: &[Interval], at: Timestamp) -> bool {
    let idx = windows.partition_point(|w| w.start <= at);
    idx > 0 && windows[idx - 1].contains(at)
}

/// The tree-map kernel: every sample outside its prefix's exclusion
/// windows is inserted into its host's accumulator, keyed by address.
fn oracle(
    events: &[RtbhEvent],
    index: &SampleIndex,
    cols: &ColumnarFlows,
    config: &HostConfig,
) -> HostAnalysis {
    let exclusions = exclusion_windows(events, config.reaction);
    let origin_of: BTreeMap<Prefix, Asn> = events.iter().map(|e| (e.prefix, e.origin)).collect();

    let mut accums: BTreeMap<Ipv4Addr, (Prefix, HostAccum)> = BTreeMap::new();
    for (pid, prefix) in index.prefixes().iter().enumerate() {
        let windows = exclusions.get(prefix).map_or(&[][..], Vec::as_slice);
        for &id in index.towards(pid) {
            let i = id as usize;
            if in_windows(windows, cols.at(i)) {
                continue;
            }
            let (_, acc) = accums
                .entry(cols.dst_ip(i))
                .or_insert_with(|| (*prefix, HostAccum::default()));
            let day = cols.at(i).day();
            acc.days_in.insert(day);
            acc.src_in.insert(cols.src_port(i));
            acc.dst_in.insert(cols.dst_port(i));
            if cols.protocol(i).has_ports() {
                *acc.daily_services
                    .entry(day)
                    .or_default()
                    .entry(Service::new(cols.protocol(i), cols.dst_port(i)))
                    .or_insert(0) += 1;
            }
        }
        for &id in index.from(pid) {
            let i = id as usize;
            if in_windows(windows, cols.at(i)) {
                continue;
            }
            let (_, acc) = accums
                .entry(cols.src_ip(i))
                .or_insert_with(|| (*prefix, HostAccum::default()));
            acc.days_out.insert(cols.at(i).day());
            acc.src_out.insert(cols.src_port(i));
            acc.dst_out.insert(cols.dst_port(i));
        }
    }

    let hosts = accums
        .into_iter()
        .map(|(addr, (prefix, acc))| {
            let port_features = [
                acc.src_in.len(),
                acc.src_out.len(),
                acc.dst_in.len(),
                acc.dst_out.len(),
            ];
            let normalised: Vec<f64> = port_features
                .iter()
                .map(|&c| (c as f64 / 65535.0).min(1.0))
                .collect();
            // Per-day top service (most packets; ties by service order).
            let mut top_services: Vec<Service> = acc
                .daily_services
                .values()
                .filter_map(|day| {
                    day.iter()
                        .max_by_key(|(s, c)| (**c, std::cmp::Reverse(**s)))
                        .map(|(s, _)| *s)
                })
                .collect();
            top_services.sort();
            top_services.dedup();
            let port_variation = (!acc.daily_services.is_empty())
                .then(|| top_services.len() as f64 / acc.daily_services.len() as f64);
            let eligible = acc.days_in.len().min(acc.days_out.len()) >= config.min_days;
            let class = if !eligible {
                HostClass::InsufficientData
            } else {
                match port_variation {
                    Some(v) if v <= config.server_max_variation => HostClass::Server,
                    Some(v) if v >= config.client_min_variation => HostClass::Client,
                    _ => HostClass::Ambiguous,
                }
            };
            HostRecord {
                addr,
                prefix,
                origin: origin_of.get(&prefix).copied().unwrap_or(Asn::RESERVED),
                days_in: acc.days_in.len(),
                days_out: acc.days_out.len(),
                port_features,
                radviz: radviz_project(&normalised),
                top_services,
                port_variation,
                class,
            }
        })
        .collect();
    HostAnalysis {
        hosts,
        config: *config,
    }
}

fn assert_same(
    events: &[RtbhEvent],
    index: &SampleIndex,
    cols: &ColumnarFlows,
    config: &HostConfig,
) {
    let expected = oracle(events, index, cols, config);
    let swept = analyze_hosts(events, index, cols, config);
    assert_eq!(swept, expected);
    assert_eq!(
        rtbh_json::to_vec_pretty(&swept),
        rtbh_json::to_vec_pretty(&expected)
    );
}

const DAY_MS: i64 = 86_400_000;

/// Blackholes drawn from: a /24 with two /32s nested inside, a /30, a lone
/// /32, and a /24 with one active host.
const PREFIXES: [&str; 6] = [
    "10.0.0.0/24",
    "10.0.0.1/32",
    "10.0.0.2/32",
    "10.1.0.0/30",
    "10.2.0.9/32",
    "10.3.0.0/24",
];

/// Host addresses: inside (and between) the prefixes above, plus addresses
/// no blackhole covers.
const HOSTS: [&str; 13] = [
    "10.0.0.0",
    "10.0.0.1",
    "10.0.0.2",
    "10.0.0.3",
    "10.0.0.255",
    "10.1.0.0",
    "10.1.0.3",
    "10.1.0.4",
    "10.2.0.9",
    "10.3.0.7",
    "100.64.0.1",
    "52.0.0.1",
    "0.0.0.0",
];

/// Ports drawn from a small pool so per-day counts tie, plus the extremes.
const PORTS: [u16; 6] = [0, 1, 53, 443, 8080, 65535];

fn addr(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

fn arb_protocol(rng: &mut ChaChaRng) -> Protocol {
    match rng.gen_range(0..10u32) {
        0..=3 => Protocol::Tcp,
        4..=7 => Protocol::Udp,
        8 => Protocol::Icmp,
        _ => Protocol::Other(*[0u8, 2, 47, 50, 255].choose(rng).unwrap()),
    }
}

fn arb_port(rng: &mut ChaChaRng) -> u16 {
    match rng.gen_range(0..8u32) {
        0 => rng.gen(),
        // Near the extremes, where an off-by-one in a port's bit would land.
        1 if rng.gen_bool(0.5) => rng.gen_range(0..128u16),
        1 => rng.gen_range(65_408..=65_535u16),
        _ => *PORTS.choose(rng).unwrap(),
    }
}

/// A capture time in a few days around `base_day`, often just either side
/// of midnight.
fn arb_time(rng: &mut ChaChaRng, base_day: i64) -> i64 {
    let day = base_day + rng.gen_range(0..4i64);
    let tod = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(0..3i64),
        1 => DAY_MS - rng.gen_range(1..=3i64),
        _ => rng.gen_range(0..DAY_MS),
    };
    day * DAY_MS + tod
}

/// Which way a host's traffic may flow: incoming only, outgoing only, or
/// both.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    In,
    Out,
    Both,
}

fn sample(at: i64, src: Ipv4Addr, dst: Ipv4Addr, rng: &mut ChaChaRng) -> FlowSample {
    FlowSample {
        at: Timestamp::from_millis(at),
        src_mac: MacAddr::from_id(1),
        dst_mac: MacAddr::from_id(2),
        src_ip: src,
        dst_ip: dst,
        protocol: arb_protocol(rng),
        src_port: arb_port(rng),
        dst_port: arb_port(rng),
        packet_len: 500,
        fragment: false,
    }
}

/// One generated case: a blackhole update log, a flow log, events on the
/// announced prefixes and a host configuration.
struct Case {
    updates: UpdateLog,
    flows: FlowLog,
    events: Vec<RtbhEvent>,
    config: HostConfig,
}

fn arb_case(rng: &mut ChaChaRng) -> Case {
    let base_day = rng.gen_range(-3..=2i64);
    let config = HostConfig {
        min_days: rng.gen_range(0..=3usize),
        reaction: TimeDelta::minutes(rng.gen_range(0..=20i64)),
        server_max_variation: rng.gen_range(0.0..0.6f64),
        client_min_variation: rng.gen_range(0.4..1.0f64),
    };

    // Announce a random subset in a random order: prefix ids follow the
    // first announcement.
    let mut announced: Vec<Prefix> = PREFIXES
        .iter()
        .filter(|_| rng.gen_ratio(3, 4))
        .map(|p| p.parse().unwrap())
        .collect();
    announced.shuffle(rng);
    let updates = announced
        .iter()
        .enumerate()
        .map(|(k, &prefix)| BgpUpdate {
            at: Timestamp::from_millis(base_day * DAY_MS + k as i64),
            peer: Asn(9),
            prefix,
            origin: Asn(100 + k as u32),
            kind: UpdateKind::Announce,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        })
        .collect();

    let hosts: Vec<(Ipv4Addr, Role)> = HOSTS
        .iter()
        .map(|h| {
            let role = *[Role::In, Role::Out, Role::Both, Role::Both]
                .choose(rng)
                .unwrap();
            (addr(h), role)
        })
        .collect();
    let senders: Vec<Ipv4Addr> = hosts
        .iter()
        .filter(|h| h.1 != Role::In)
        .map(|h| h.0)
        .collect();
    let receivers: Vec<Ipv4Addr> = hosts
        .iter()
        .filter(|h| h.1 != Role::Out)
        .map(|h| h.0)
        .collect();
    let mut samples = Vec::new();
    for _ in 0..rng.gen_range(0..=120usize) {
        let at = arb_time(rng, base_day);
        let src = *senders.choose(rng).unwrap_or(&addr("100.64.0.1"));
        let dst = *receivers.choose(rng).unwrap_or(&addr("52.0.0.1"));
        samples.push(sample(at, src, dst, rng));
    }

    // Events: windows anywhere in the span, sometimes one covering all of
    // it, so a prefix can be left with no rows after exclusion.
    let mut events = Vec::new();
    for &prefix in &announced {
        for _ in 0..rng.gen_range(0..=2usize) {
            let (start, end) = if rng.gen_ratio(1, 6) {
                ((base_day - 1) * DAY_MS, (base_day + 5) * DAY_MS)
            } else {
                let start = arb_time(rng, base_day);
                (start, start + rng.gen_range(1..=DAY_MS / 2))
            };
            let mut spans = vec![Interval::new(
                Timestamp::from_millis(start),
                Timestamp::from_millis(end),
            )];
            if rng.gen_ratio(1, 3) {
                let gap = rng.gen_range(0..=3_600_000i64);
                spans.push(Interval::new(
                    Timestamp::from_millis(end + gap),
                    Timestamp::from_millis(end + gap + rng.gen_range(1..=3_600_000i64)),
                ));
            }
            events.push(RtbhEvent {
                id: events.len(),
                prefix,
                spans,
                trigger_peer: Asn(9),
                origin: Asn(rng.gen_range(200..=203u32)),
                open_ended: false,
            });
        }
    }

    // Probes on the exclusion bounds: `start − reaction` and the event end,
    // ±1 ms, towards and from a host the event's prefix covers.
    for e in &events {
        let inside: Vec<Ipv4Addr> = hosts
            .iter()
            .map(|h| h.0)
            .filter(|&h| e.prefix.contains_addr(h))
            .collect();
        let Some(&host) = inside.choose(rng) else {
            continue;
        };
        for bound in [
            (e.start() - config.reaction).as_millis(),
            e.end().as_millis(),
        ] {
            let at = bound + rng.gen_range(-1..=1i64);
            let peer = addr("100.64.0.1");
            let (src, dst) = if rng.gen_bool(0.5) {
                (peer, host)
            } else {
                (host, peer)
            };
            samples.push(sample(at, src, dst, rng));
        }
    }

    Case {
        updates: UpdateLog::from_updates(updates),
        flows: FlowLog::from_samples(samples),
        events,
        config,
    }
}

#[test]
fn sweep_matches_the_tree_map_kernel_on_generated_logs() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "hosts_diff",
        test_name: "sweep_matches_the_tree_map_kernel_on_generated_logs",
        base_seed: seeds::FUZZ_HOSTS_DIFF,
    };
    target.run(400, |_, rng| {
        let case = arb_case(rng);
        let workers = rng.gen_range(1..=3);
        let capacity = if rng.gen_bool(0.5) { 0 } else { 64 };
        let enriched = ColumnarFlows::build_enriched_with_capacity(
            &case.updates,
            &case.flows,
            &MacResolver::from_map(BTreeMap::new()),
            &OriginTable::build(&[]),
            Timestamp::EPOCH,
            workers,
            capacity,
        );
        let index = SampleIndex::from_columns(
            enriched.blackholes,
            enriched.blackhole_prefixes,
            &enriched.columns,
            workers,
        );
        assert_same(&case.events, &index, &enriched.columns, &case.config);
    });
}

#[test]
fn sweep_matches_the_tree_map_kernel_on_simulated_corpora() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "hosts_diff",
        test_name: "sweep_matches_the_tree_map_kernel_on_simulated_corpora",
        base_seed: seeds::FUZZ_HOSTS_CORPUS,
    };
    // One case simulates and prepares a whole corpus, so even the deep
    // fuzz job runs only a few.
    target.run_capped(2, 8, |_, rng| {
        let mut scenario = ScenarioConfig::tiny();
        scenario.seed = rng.next_u64();
        let out = rtbh_sim::run(&scenario);
        let analyzer = Analyzer::new(out.corpus.clone(), AnalyzerConfig::for_corpus(&out.corpus));
        let config = HostConfig {
            min_days: rng.gen_range(0..=4usize),
            reaction: TimeDelta::minutes(rng.gen_range(0..=60i64)),
            ..HostConfig::PAPER
        };
        assert_same(
            analyzer.events(),
            analyzer.index(),
            analyzer.columns(),
            &config,
        );
    });
}
