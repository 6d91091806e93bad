//! The simulation engine: control-plane synthesis, parallel traffic
//! generation, and the chronological fabric replay.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rtbh_rng::{ChaChaRng, Rng};

use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
use rtbh_fabric::{Fabric, FlowLog, FlowSample, MemberId, Sampler};
use rtbh_net::{Asn, Community, Interval, Ipv4Addr, MacAddr, Protocol, TimeDelta, Timestamp};
use rtbh_traffic::{PacketDescriptor, Workload};

use crate::config::ScenarioConfig;
use crate::members::{self, MemberPopulation, PolicyClass};
use crate::planner::{self, Job, Plan};
use crate::truth::GroundTruth;
use rtbh_core::corpus::{Corpus, MemberInfo};

/// The complete output of a scenario run.
pub struct SimOutput {
    /// What the vantage point recorded.
    pub corpus: Corpus,
    /// What was actually planted.
    pub truth: GroundTruth,
}

/// The IXP's blackhole next-hop address (resolves to the blackhole MAC).
pub const BLACKHOLE_NEXT_HOP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 66);

/// SplitMix64 — derives per-component seeds from the master seed.
fn mix_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the route-server update stream from the planned events.
fn control_plane(plan: &Plan, corpus_end: Timestamp) -> UpdateLog {
    let mut updates = Vec::new();
    for event in &plan.events {
        let mut communities = vec![Community::BLACKHOLE];
        for peer in &event.blocked_peers {
            if let Some(c) = Community::block_peer(*peer) {
                communities.push(c);
            }
        }
        for span in &event.announcement_spans {
            updates.push(BgpUpdate {
                at: span.start,
                peer: event.trigger_peer,
                prefix: event.prefix,
                origin: event.origin,
                kind: UpdateKind::Announce,
                communities: communities.clone(),
                next_hop: BLACKHOLE_NEXT_HOP,
            });
            if span.end < corpus_end {
                updates.push(BgpUpdate {
                    at: span.end,
                    peer: event.trigger_peer,
                    prefix: event.prefix,
                    origin: event.origin,
                    kind: UpdateKind::Withdraw,
                    communities: communities.clone(),
                    next_hop: BLACKHOLE_NEXT_HOP,
                });
            }
        }
    }
    UpdateLog::from_updates(updates)
}

/// Runs all traffic jobs, in parallel worker threads, deterministically:
/// each job has its own ChaCha20 stream and results are concatenated in job
/// order regardless of completion order.
fn generate_traffic(jobs: &[Job], sampler: &Sampler, master_seed: u64) -> Vec<PacketDescriptor> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16);
    let results: Vec<Mutex<Vec<PacketDescriptor>>> =
        (0..jobs.len()).map(|_| Mutex::new(Vec::new())).collect();
    // A shared atomic cursor replaces a work queue: each worker claims the
    // next unclaimed job index until the list is exhausted.
    let next_job = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next_job = &next_job;
            let results = &results;
            scope.spawn(move || loop {
                let i = next_job.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let job = &jobs[i];
                let mut rng = ChaChaRng::seed_from_u64(mix_seed(master_seed, job.tag));
                let pkts = job.workload.generate(job.window, sampler, &mut rng);
                *results[i].lock().expect("worker poisoned lock") = pkts;
            });
        }
    });
    let mut all = Vec::with_capacity(
        results
            .iter()
            .map(|r| r.lock().expect("worker poisoned lock").len())
            .sum(),
    );
    for r in results {
        all.append(&mut r.into_inner().expect("worker poisoned lock"));
    }
    all.sort_by_key(|p| p.at);
    all
}

/// One entry of the merged control-plane replay stream.
enum ControlAction<'a> {
    RouteServer(&'a BgpUpdate),
    Bilateral(BgpUpdate, &'a [MemberId]),
}

/// Replays updates and packets chronologically through the fabric,
/// producing the sampled flow log (with the injected clock offset).
fn replay(
    population: &MemberPopulation,
    plan: &Plan,
    updates: &UpdateLog,
    descriptors: &[PacketDescriptor],
    clock_offset: TimeDelta,
    corpus_end: Timestamp,
) -> FlowLog {
    let mut fabric = Fabric::new(population.members.clone());
    for (prefix, origin, member) in &plan.seeds {
        fabric.seed_regular_route(*prefix, *origin, *member, Timestamp::EPOCH);
    }

    // Merge route-server and bilateral actions into one time-ordered list.
    let mut actions: Vec<(Timestamp, ControlAction<'_>)> = updates
        .updates()
        .iter()
        .map(|u| (u.at, ControlAction::RouteServer(u)))
        .collect();
    for b in &plan.bilateral {
        let announce = BgpUpdate {
            at: b.span.start,
            peer: Asn(0),
            prefix: b.prefix,
            origin: b.origin,
            kind: UpdateKind::Announce,
            communities: vec![Community::BLACKHOLE],
            next_hop: BLACKHOLE_NEXT_HOP,
        };
        actions.push((b.span.start, ControlAction::Bilateral(announce, &b.members)));
        if b.span.end < corpus_end {
            let withdraw = BgpUpdate {
                at: b.span.end,
                peer: Asn(0),
                prefix: b.prefix,
                origin: b.origin,
                kind: UpdateKind::Withdraw,
                communities: vec![Community::BLACKHOLE],
                next_hop: BLACKHOLE_NEXT_HOP,
            };
            actions.push((b.span.end, ControlAction::Bilateral(withdraw, &b.members)));
        }
    }
    actions.sort_by_key(|(at, _)| *at);

    let mut samples = Vec::with_capacity(descriptors.len());
    let mut next_action = 0usize;
    for pkt in descriptors {
        while next_action < actions.len() && actions[next_action].0 <= pkt.at {
            match &actions[next_action].1 {
                ControlAction::RouteServer(update) => {
                    let recipients = population.route_server.recipients(update);
                    fabric.distribute(update, &recipients);
                }
                ControlAction::Bilateral(update, members) => {
                    for m in members.iter() {
                        fabric.apply_bilateral(update, *m);
                    }
                }
            }
            next_action += 1;
        }
        let Some(member) = fabric.member_by_asn(pkt.handover) else {
            continue;
        };
        let ingress_id = member.id;
        // Per-source router choice: stable per source IP, mixed across
        // sources — this is what splits an "inconsistent" member's traffic
        // between its accepting and rejecting routers.
        let router_idx = (pkt.src_ip.to_u32() as usize) % member.routers.len();
        let src_mac = member.routers[router_idx].mac;
        let outcome = fabric.forward(ingress_id, src_mac, pkt.dst_ip);
        let Some(dst_mac) = outcome.dst_mac() else {
            continue; // unroutable: never crosses the fabric
        };
        samples.push(FlowSample {
            at: pkt.at + clock_offset,
            src_mac,
            dst_mac,
            src_ip: pkt.src_ip,
            dst_ip: pkt.dst_ip,
            protocol: pkt.protocol,
            src_port: pkt.src_port,
            dst_port: pkt.dst_port,
            packet_len: pkt.packet_len,
            fragment: pkt.fragment,
        });
    }
    FlowLog::from_samples(samples)
}

/// Pollutes the corpus with IXP-internal management flows, which the
/// analysis pipeline must clean out (paper §3.1 removes 0.01%).
fn internal_flows(
    config: &ScenarioConfig,
    corpus_end: Timestamp,
    rng: &mut ChaChaRng,
) -> (Vec<FlowSample>, Vec<MacAddr>) {
    let device_count = 4u32;
    let macs: Vec<MacAddr> = (0..device_count)
        .map(|i| MacAddr::from_id(0x00F0_0000 + i))
        .collect();
    let samples = (0..config.internal_samples)
        .map(|_| {
            let a = rng.gen_range(0..device_count) as usize;
            let b = (a + 1 + rng.gen_range(0..device_count - 1) as usize) % device_count as usize;
            FlowSample {
                at: Timestamp::from_millis(rng.gen_range(0..corpus_end.as_millis())),
                src_mac: macs[a],
                dst_mac: macs[b],
                src_ip: Ipv4Addr::new(10, 250, 0, a as u8),
                dst_ip: Ipv4Addr::new(10, 250, 0, b as u8),
                protocol: Protocol::Udp,
                src_port: 161,
                dst_port: 162,
                packet_len: 120,
                fragment: false,
            }
        })
        .collect();
    (samples, macs)
}

/// Runs a full scenario.
///
/// # Panics
/// Panics if the configuration fails [`ScenarioConfig::validate`].
pub fn run(config: &ScenarioConfig) -> SimOutput {
    config.validate().expect("invalid scenario configuration");
    let corpus_end = Timestamp::EPOCH + TimeDelta::days(config.days as i64);

    let mut member_rng = ChaChaRng::seed_from_u64(mix_seed(config.seed, 0x01));
    let population = members::build(config, &mut member_rng);
    let plan_rng = ChaChaRng::seed_from_u64(mix_seed(config.seed, 0x02));
    let plan = planner::plan(config, &population, plan_rng);

    let updates = control_plane(&plan, corpus_end);
    let sampler = Sampler::new(config.sampling_rate);
    let descriptors = generate_traffic(&plan.jobs, &sampler, config.seed);
    let clock_offset = TimeDelta::millis(config.clock_offset_ms);
    let flows = replay(
        &population,
        &plan,
        &updates,
        &descriptors,
        clock_offset,
        corpus_end,
    );

    let mut internal_rng = ChaChaRng::seed_from_u64(mix_seed(config.seed, 0x03));
    let (internal, internal_macs) = internal_flows(config, corpus_end, &mut internal_rng);
    let flows = flows.merge(FlowLog::from_samples(internal));

    // Enrich the registry with the victim origin ASes the planner created.
    let mut registry = population.registry.clone();
    for (asn, org_type) in &plan.origin_types {
        if registry.get(*asn).is_none() {
            registry.insert(rtbh_peeringdb::AsRecord {
                asn: *asn,
                name: format!("Org-{}", asn.value()),
                org_type: *org_type,
                scope: rtbh_peeringdb::Scope::Regional,
            });
        }
    }

    let members_info: Vec<MemberInfo> = population
        .members
        .iter()
        .map(|m| MemberInfo {
            asn: m.asn,
            macs: m.routers.iter().map(|r| r.mac).collect(),
        })
        .collect();

    let mut routes: Vec<(rtbh_net::Prefix, Asn)> =
        plan.seeds.iter().map(|(p, o, _)| (*p, *o)).collect();
    routes.extend(plan.advertised.iter().copied());
    routes.sort();
    routes.dedup();

    let corpus = Corpus {
        period: Interval::new(Timestamp::EPOCH, corpus_end),
        sampling_rate: config.sampling_rate,
        route_server_asn: population.route_server.asn(),
        updates,
        flows,
        members: members_info,
        registry,
        internal_macs,
        routes,
        caches: Default::default(),
    };
    let truth = GroundTruth {
        events: plan.events.clone(),
        accepting_members: population.asns_of(PolicyClass::Accepting),
        rejecting_members: population.asns_of(PolicyClass::Rejecting),
        inconsistent_members: population.asns_of(PolicyClass::Inconsistent),
        clock_offset_ms: config.clock_offset_ms,
        heavy_hitter_origin: plan.heavy_hitter_origin,
    };
    SimOutput { corpus, truth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::EventKind;

    fn tiny_run() -> SimOutput {
        run(&ScenarioConfig::tiny())
    }

    #[test]
    fn corpus_has_updates_and_flows() {
        let out = tiny_run();
        assert!(!out.corpus.updates.is_empty());
        assert!(!out.corpus.flows.is_empty());
        assert!(out.corpus.updates.blackholes().count() > 0);
        assert!(
            out.corpus.flows.dropped().count() > 0,
            "someone must accept blackholes"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = tiny_run();
        let b = tiny_run();
        assert_eq!(a.corpus.digest(), b.corpus.digest());
        assert_eq!(a.truth.events, b.truth.events);
    }

    #[test]
    fn floods_that_draw_no_reflectors_are_not_planned() {
        // Each of these seeds draws an empty reflector set for one
        // amplification flood; the planner skips that event instead of
        // handing the traffic generator an attack without amplifiers.
        for seed in [0x724a_d7fc_c384_a975, 0x828a_8e46_20c6_a815] {
            let mut config = ScenarioConfig::tiny();
            config.seed = seed;
            let out = run(&config);
            assert!(!out.corpus.flows.is_empty(), "seed {seed:#x}");
            assert!(
                out.truth.visible_attack_count() < config.visible_attack_events as usize,
                "seed {seed:#x}"
            );
        }
    }

    #[test]
    fn different_seed_differs() {
        let a = tiny_run();
        let mut config = ScenarioConfig::tiny();
        config.seed ^= 0xDEAD;
        let b = run(&config);
        assert_ne!(a.corpus.digest(), b.corpus.digest());
    }

    #[test]
    fn updates_are_time_ordered_blackholes() {
        let out = tiny_run();
        let updates = out.corpus.updates.updates();
        for w in updates.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(updates.iter().all(|u| u.is_blackhole()));
    }

    #[test]
    fn flow_timestamps_carry_clock_offset() {
        // With a -40ms offset, some flow stamps can precede the epoch, and
        // all stamps must lie within the (slightly widened) period.
        let out = tiny_run();
        let end = out.corpus.period.end + TimeDelta::millis(100);
        let start = out.corpus.period.start - TimeDelta::millis(100);
        for f in out.corpus.flows.samples() {
            assert!(f.at >= start && f.at < end);
        }
    }

    #[test]
    fn internal_flows_present_and_marked() {
        let out = tiny_run();
        let internal: std::collections::BTreeSet<MacAddr> =
            out.corpus.internal_macs.iter().copied().collect();
        let count = out
            .corpus
            .flows
            .samples()
            .iter()
            .filter(|f| internal.contains(&f.src_mac))
            .count();
        assert_eq!(count as u32, ScenarioConfig::tiny().internal_samples);
    }

    #[test]
    fn attack_victims_receive_dropped_and_forwarded_traffic() {
        let out = tiny_run();
        // Across all visible attacks, some packets must be dropped (accepting
        // members) and some forwarded (rejecting members) — the paper's
        // central /32 acceptance finding.
        let mut dropped = 0usize;
        let mut forwarded = 0usize;
        for e in out.truth.events.iter() {
            if !matches!(e.kind, EventKind::AttackVisible { .. }) {
                continue;
            }
            for f in out
                .corpus
                .flows
                .samples()
                .iter()
                .filter(|f| f.dst_ip == e.victim)
            {
                if f.is_dropped() {
                    dropped += 1;
                } else {
                    forwarded += 1;
                }
            }
        }
        assert!(dropped > 0, "no dropped attack traffic at all");
        assert!(forwarded > 0, "no forwarded attack traffic at all");
    }

    #[test]
    fn baseline_victims_show_bidirectional_traffic() {
        let out = tiny_run();
        let baseline_victims: Vec<_> = out
            .truth
            .events
            .iter()
            .filter(|e| !matches!(e.host, crate::truth::HostProfile::Silent))
            .map(|e| e.victim)
            .collect();
        assert!(!baseline_victims.is_empty());
        let mut bidirectional = 0;
        for v in &baseline_victims {
            let incoming = out.corpus.flows.samples().iter().any(|f| f.dst_ip == *v);
            let outgoing = out.corpus.flows.samples().iter().any(|f| f.src_ip == *v);
            if incoming && outgoing {
                bidirectional += 1;
            }
        }
        assert!(
            bidirectional * 2 > baseline_victims.len(),
            "most baseline victims must show both directions: {bidirectional}/{}",
            baseline_victims.len()
        );
    }

    #[test]
    fn zombie_prefixes_have_under_ten_samples() {
        let out = tiny_run();
        for e in out
            .truth
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Zombie))
        {
            let n = out.corpus.flows.towards(e.prefix).count();
            assert!(n < 10, "zombie {} has {} samples", e.prefix, n);
        }
    }

    #[test]
    fn member_directory_covers_sampled_macs() {
        let out = tiny_run();
        let map = out.corpus.mac_to_member();
        let internal: std::collections::BTreeSet<MacAddr> =
            out.corpus.internal_macs.iter().copied().collect();
        for f in out.corpus.flows.samples() {
            if internal.contains(&f.src_mac) {
                continue;
            }
            assert!(
                map.contains_key(&f.src_mac),
                "unknown src mac {}",
                f.src_mac
            );
            assert!(
                f.dst_mac.is_blackhole() || map.contains_key(&f.dst_mac),
                "unknown dst mac {}",
                f.dst_mac
            );
        }
    }
}
