//! The event planner: ground truth, schedules and workload jobs.
//!
//! Produces, deterministically per seed:
//!
//! * the [`PlannedEvent`] ledger (event kinds per the Table 2 / Fig. 19
//!   calibration in [`crate::config`]),
//! * one [`Job`] per traffic workload (baselines, attacks, noise),
//! * the regular-route seeds for victim address space,
//! * bilateral (non-route-server) blackhole specs.

use rtbh_rng::{ChaChaRng, Rng, SliceRandom};

use rtbh_fabric::MemberId;
use rtbh_net::{
    AmplificationProtocol, Asn, Interval, Ipv4Addr, Prefix, Protocol, Service, TimeDelta, Timestamp,
};
use rtbh_peeringdb::OrgType;
use rtbh_traffic::pool::{AmplifierPool, AmplifierPoolSpec};
use rtbh_traffic::{
    AmplificationAttack, AnyWorkload, AttackEnvelope, ClientWorkload, DiurnalRate, RandomPortFlood,
    ScanNoise, ServerWorkload, SourcePool, SourceSpec, SynFlood,
};

use crate::config::ScenarioConfig;
use crate::members::{MemberPopulation, PolicyClass};
use crate::truth::{EventKind, HostProfile, PlannedEvent};

/// One traffic-generation job: a workload, the window it runs in, and a
/// stable RNG tag so parallel generation stays deterministic.
#[derive(Debug, Clone)]
pub struct Job {
    /// Mixed into the per-job RNG stream.
    pub tag: u64,
    /// The workload to run.
    pub workload: AnyWorkload,
    /// The window to generate for.
    pub window: Interval,
}

/// A blackhole installed bilaterally at specific members, invisible to the
/// route server (paper §3.1: ~5% of dropped bytes).
#[derive(Debug, Clone)]
pub struct BilateralSpec {
    /// The blackholed prefix.
    pub prefix: Prefix,
    /// Origin AS of the prefix.
    pub origin: Asn,
    /// The members that installed the bilateral blackhole.
    pub members: Vec<MemberId>,
    /// Active span.
    pub span: Interval,
}

/// The full plan.
pub struct Plan {
    /// Planned route-server RTBH events (ground truth).
    pub events: Vec<PlannedEvent>,
    /// Victim origin ASes with their organisation types (for registry
    /// enrichment; member origins are already registered).
    pub origin_types: Vec<(Asn, OrgType)>,
    /// All traffic jobs.
    pub jobs: Vec<Job>,
    /// Regular routes to seed: `(covering prefix, origin, egress member)`.
    pub seeds: Vec<(Prefix, Asn, MemberId)>,
    /// Bilateral blackholes.
    pub bilateral: Vec<BilateralSpec>,
    /// Advertised `(prefix, origin)` pairs beyond the seeds: amplifier space
    /// and chaff ASes, for the corpus's route-table snapshot.
    pub advertised: Vec<(Prefix, Asn)>,
    /// The heavy-hitter amplifier origin AS.
    pub heavy_hitter_origin: Asn,
}

/// Allocates victim address blocks: origin AS `i` owns `51.i.0.0/16`,
/// handed out as consecutive /22 blocks. Origins carry an organisation type
/// so victim host profiles correlate with AS types the way Table 4 of the
/// paper reports (client victims live in eyeball networks, servers in
/// content networks).
struct VictimSpace {
    /// `(origin ASN, egress member, org type)` per origin index.
    origins: Vec<(Asn, MemberId, OrgType)>,
    cursors: Vec<u32>,
    /// Origin indices per org type.
    buckets: std::collections::BTreeMap<OrgType, Vec<usize>>,
    /// Next customer origin ASN.
    next_customer: u32,
    /// Members that can host customer origins.
    trigger_members: Vec<MemberId>,
}

impl VictimSpace {
    fn new(origins: Vec<(Asn, MemberId, OrgType)>, trigger_members: Vec<MemberId>) -> Self {
        assert!(
            origins.len() <= 256,
            "victim space supports at most 256 origins"
        );
        let cursors = vec![0; origins.len()];
        let mut buckets: std::collections::BTreeMap<OrgType, Vec<usize>> = Default::default();
        for (i, (_, _, t)) in origins.iter().enumerate() {
            buckets.entry(*t).or_default().push(i);
        }
        Self {
            origins,
            cursors,
            buckets,
            next_customer: 2001,
            trigger_members,
        }
    }

    /// An origin of the wanted type: usually reuses an existing one, grows a
    /// new customer origin while address space lasts.
    fn origin_of_type<R: Rng>(&mut self, wanted: OrgType, rng: &mut R) -> usize {
        let existing = self.buckets.get(&wanted).map_or(0, |b| b.len());
        let reuse = existing > 0 && (self.origins.len() >= 250 || rng.gen_bool(0.72));
        if reuse {
            let bucket = &self.buckets[&wanted];
            return bucket[rng.gen_range(0..bucket.len())];
        }
        if self.origins.len() >= 250 {
            // Space exhausted and no bucket: fall back to any origin.
            return rng.gen_range(0..self.origins.len());
        }
        let asn = Asn(self.next_customer);
        self.next_customer += 2;
        let member = self.trigger_members[rng.gen_range(0..self.trigger_members.len())];
        let idx = self.origins.len();
        self.origins.push((asn, member, wanted));
        self.cursors.push(0);
        self.buckets.entry(wanted).or_default().push(idx);
        idx
    }

    /// Allocates the next /22 block of an origin.
    fn alloc_block(&mut self, origin_idx: usize) -> Prefix {
        let c = self.cursors[origin_idx];
        self.cursors[origin_idx] += 1;
        assert!(c < 64, "origin ran out of /22 blocks");
        let base = Ipv4Addr::new(51, origin_idx as u8, (c * 4) as u8, 0);
        Prefix::new(base, 22).expect("len 22")
    }
}

/// Conditional org-type mixes for victim origins, calibrated to Table 4.
fn victim_type_table(host: HostProfile) -> &'static [(OrgType, f64)] {
    match host {
        HostProfile::Client => &[
            (OrgType::CableDslIsp, 0.60),
            (OrgType::Unknown, 0.23),
            (OrgType::Nsp, 0.14),
            (OrgType::Content, 0.02),
            (OrgType::Enterprise, 0.01),
        ],
        HostProfile::Server => &[
            (OrgType::Unknown, 0.38),
            (OrgType::Content, 0.34),
            (OrgType::CableDslIsp, 0.14),
            (OrgType::Nsp, 0.13),
            (OrgType::Enterprise, 0.01),
        ],
        HostProfile::Silent => &[
            (OrgType::Unknown, 0.30),
            (OrgType::CableDslIsp, 0.25),
            (OrgType::Nsp, 0.20),
            (OrgType::Content, 0.15),
            (OrgType::Enterprise, 0.10),
        ],
    }
}

/// Largest-deficit quota sampling: deterministically tracks a target
/// distribution so even small populations (e.g. ~60 detected servers in
/// Table 4) land on their calibrated shares instead of bouncing with
/// binomial noise.
#[derive(Default)]
struct QuotaSampler {
    counts: std::collections::BTreeMap<(u8, OrgType), f64>,
    totals: std::collections::BTreeMap<u8, f64>,
}

impl QuotaSampler {
    fn draw(&mut self, stratum: u8, table: &[(OrgType, f64)]) -> OrgType {
        let total = self.totals.entry(stratum).or_insert(0.0);
        *total += 1.0;
        let total = *total;
        let weight_sum: f64 = table.iter().map(|(_, w)| w).sum();
        // Pick the type with the largest deficit against its quota.
        let pick = table
            .iter()
            .map(|(t, w)| {
                let have = self.counts.get(&(stratum, *t)).copied().unwrap_or(0.0);
                let want = total * w / weight_sum;
                (*t, want - have)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(t, _)| t)
            .expect("non-empty table");
        *self.counts.entry((stratum, pick)).or_insert(0.0) += 1.0;
        pick
    }
}

/// Weighted pick of an amplification vector (cLDAP, NTP and DNS lead, per
/// Table 3's "most common amplifying protocols per event").
fn pick_vector<R: Rng>(rng: &mut R) -> AmplificationProtocol {
    use AmplificationProtocol::*;
    const WEIGHTED: [(AmplificationProtocol, f64); 12] = [
        (Cldap, 0.28),
        (Ntp, 0.24),
        (Dns, 0.19),
        (Memcached, 0.06),
        (Ssdp, 0.06),
        (Chargen, 0.05),
        (Snmp, 0.03),
        (Rip, 0.03),
        (Bittorrent, 0.02),
        (Sip, 0.02),
        (Stun, 0.01),
        (Qotd, 0.01),
    ];
    let total: f64 = WEIGHTED.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total);
    for (p, w) in WEIGHTED {
        if x < w {
            return p;
        }
        x -= w;
    }
    Cldap
}

/// Draws the number of distinct amplification vectors for one attack,
/// calibrated (together with the fragment share) against Table 3.
fn pick_vector_count<R: Rng>(rng: &mut R) -> usize {
    let x: f64 = rng.gen();
    if x < 0.52 {
        1
    } else if x < 0.95 {
        2
    } else if x < 0.997 {
        3
    } else {
        4
    }
}

/// Log-normal-ish draw via exp of a scaled normal (Box–Muller).
fn lognormal<R: Rng>(median: f64, sigma: f64, rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

/// The prefix-length class of a blackhole (Fig. 5 calibration).
fn pick_prefix_len<R: Rng>(rng: &mut R) -> u8 {
    let x: f64 = rng.gen();
    if x < 0.85 {
        32
    } else if x < 0.93 {
        24
    } else if x < 0.97 {
        // The /25..=/31 band that nearly nobody whitelists.
        rng.gen_range(25..=31)
    } else {
        rng.gen_range(22..=23)
    }
}

/// Builds the on-off announcement spans for a mitigation blackhole:
/// hold 15–45 min, withdraw to probe, gap 1–9 min (occasionally up to 12),
/// re-announce while the condition lasts; final span overruns by 5–90 min.
fn mitigation_spans<R: Rng>(
    start: Timestamp,
    condition_end: Timestamp,
    corpus_end: Timestamp,
    rng: &mut R,
) -> Vec<Interval> {
    let end_target = (condition_end + TimeDelta::minutes(rng.gen_range(5..=90))).min(corpus_end);
    let mut spans = Vec::new();
    let mut t = start;
    while spans.len() < 60 {
        let hold = TimeDelta::minutes(rng.gen_range(6..=18));
        let span_end = (t + hold).min(end_target);
        if span_end > t {
            spans.push(Interval::new(t, span_end));
        }
        if span_end >= end_target {
            break;
        }
        // Probe gaps stay below the 10-minute merge threshold: the paper's
        // Fig. 10 curve flattens right at Δ = 10 min, i.e. real re-announce
        // gaps practically never exceed it.
        let gap = TimeDelta::minutes(rng.gen_range(1..=9));
        t = span_end + gap;
        if t >= end_target {
            break;
        }
    }
    if spans.is_empty() {
        spans.push(Interval::new(
            start,
            (start + TimeDelta::minutes(15)).min(corpus_end),
        ));
    }
    spans
}

/// Context shared while planning.
pub(crate) struct Planner<'a> {
    config: &'a ScenarioConfig,
    population: &'a MemberPopulation,
    rng: ChaChaRng,
    corpus_end: Timestamp,
    /// The small pool of accepting mega-carriers that accept-dominated
    /// attacks funnel through (few top-100 slots, huge volume each — the
    /// shape behind Fig. 7's 32/55/13 split).
    accept_mega: Vec<Asn>,
    /// Quota sampler for victim org types (Table 4 shares).
    type_quota: QuotaSampler,
    space: VictimSpace,
    eyeballs: SourcePool,
    content: SourcePool,
    spoofed: SourcePool,
    pool: AmplifierPool,
    heavy_hitter_origin: Asn,
    next_event_id: u32,
    next_job_tag: u64,
    events: Vec<PlannedEvent>,
    jobs: Vec<Job>,
    seeds: Vec<(Prefix, Asn, MemberId)>,
    bilateral: Vec<BilateralSpec>,
}

impl<'a> Planner<'a> {
    fn member_ids_of_type(&self, wanted: &[OrgType], take: usize) -> Vec<MemberId> {
        let mut ids: Vec<MemberId> = self
            .population
            .members
            .iter()
            .filter(|m| wanted.contains(&self.population.registry.org_type(m.asn)))
            .map(|m| m.id)
            .collect();
        if ids.len() < take {
            ids.extend(self.population.members.iter().map(|m| m.id));
        }
        ids.truncate(take.max(1));
        ids
    }

    fn new(config: &'a ScenarioConfig, population: &'a MemberPopulation, rng: ChaChaRng) -> Self {
        let corpus_end = Timestamp::EPOCH + TimeDelta::days(config.days as i64);
        let mut planner = Self {
            config,
            population,
            rng,
            corpus_end,
            space: VictimSpace::new(Vec::new(), vec![MemberId(0)]),
            eyeballs: SourcePool::new(vec![SourceSpec {
                handover: Asn(0),
                prefix: Prefix::DEFAULT,
                weight: 1.0,
            }]),
            content: SourcePool::new(vec![SourceSpec {
                handover: Asn(0),
                prefix: Prefix::DEFAULT,
                weight: 1.0,
            }]),
            spoofed: SourcePool::new(vec![SourceSpec {
                handover: Asn(0),
                prefix: Prefix::DEFAULT,
                weight: 1.0,
            }]),
            pool: AmplifierPool::synthesize(&AmplifierPoolSpec {
                origins: vec![(Asn(1), Asn(1))],
                base_participation: 0.5,
                participation_exponent: 0.5,
                amplifiers_per_origin: 1.0,
                pool_size_per_origin: 1,
                address_base: Ipv4Addr::new(20, 0, 0, 0),
                heavy_hitter_boost: 1.0,
                volume_sigma: 0.0,
            }),
            accept_mega: Vec::new(),
            type_quota: QuotaSampler::default(),
            heavy_hitter_origin: Asn(0),
            next_event_id: 0,
            next_job_tag: 1,
            events: Vec::new(),
            jobs: Vec::new(),
            seeds: Vec::new(),
            bilateral: Vec::new(),
        };
        planner.build_populations();
        planner
    }

    fn build_populations(&mut self) {
        let members = &self.population.members;
        // Victim origins: ~60% are members themselves, the rest customer
        // ASes (2001+) behind a member. At most 250 origins (address space).
        let trigger_count = ((members.len() as f64 * 0.094).ceil() as usize).clamp(2, 78);
        let mut trigger_ids: Vec<MemberId> = members.iter().map(|m| m.id).collect();
        trigger_ids.shuffle(&mut self.rng);
        trigger_ids.truncate(trigger_count);

        let origin_target = (trigger_count + 14).min(120);
        let mut origins: Vec<(Asn, MemberId, OrgType)> = Vec::new();
        for &tid in trigger_ids.iter() {
            let asn = members[tid.0 as usize].asn;
            origins.push((asn, tid, self.population.registry.org_type(asn)));
        }
        origins.truncate(origin_target);
        self.space = VictimSpace::new(origins, trigger_ids.clone());

        // Eyeball client populations: prefer Cable/DSL/ISP members. Their
        // blocks are seeded as regular routes so responses towards clients
        // cross the fabric instead of being unroutable.
        let eyeball_ids = self.member_ids_of_type(&[OrgType::CableDslIsp], 24.min(members.len()));
        let eyeball_specs: Vec<SourceSpec> = eyeball_ids
            .iter()
            .enumerate()
            .map(|(i, id)| SourceSpec {
                handover: members[id.0 as usize].asn,
                prefix: Prefix::new(
                    Ipv4Addr::from_u32(Ipv4Addr::new(100, 64, 0, 0).to_u32() + ((i as u32) << 14)),
                    18,
                )
                .expect("len 18"),
                weight: self.rng.gen_range(0.5..3.0),
            })
            .collect();
        for (spec, id) in eyeball_specs.iter().zip(&eyeball_ids) {
            self.seeds.push((spec.prefix, spec.handover, *id));
        }
        self.eyeballs = SourcePool::new(eyeball_specs);

        // Content populations: prefer Content members; seeded likewise.
        let content_ids = self.member_ids_of_type(&[OrgType::Content], 16.min(members.len()));
        let content_specs: Vec<SourceSpec> = content_ids
            .iter()
            .enumerate()
            .map(|(i, id)| SourceSpec {
                handover: members[id.0 as usize].asn,
                prefix: Prefix::new(Ipv4Addr::new(52, i as u8, 0, 0), 16).expect("len 16"),
                weight: self.rng.gen_range(0.5..2.0),
            })
            .collect();
        for (spec, id) in content_specs.iter().zip(&content_ids) {
            self.seeds.push((spec.prefix, spec.handover, *id));
        }
        self.content = SourcePool::new(content_specs);

        // Spoofed-source carriers for SYN / random-port floods.
        let mut spoof_ids: Vec<MemberId> = members.iter().map(|m| m.id).collect();
        spoof_ids.shuffle(&mut self.rng);
        spoof_ids.truncate(12.min(members.len()));
        let spoof_specs: Vec<SourceSpec> = spoof_ids
            .iter()
            .map(|id| SourceSpec {
                handover: members[id.0 as usize].asn,
                prefix: Prefix::DEFAULT,
                weight: 1.0,
            })
            .collect();
        self.spoofed = SourcePool::new(spoof_specs);

        // Amplifier pool: handover members weighted towards NSPs and towards
        // blackhole-accepting members (lifting traffic-weighted /32 drop
        // rates to the paper's ~50%).
        // Only ~55% of members transit reflector traffic at all (the paper
        // observed 501 of ~900 members as attack handover ASes); stub
        // networks never do. Origins are spread round-robin over the
        // carriers — reflector hosting is fragmented, which is what keeps
        // per-carrier attack participation low (Fig. 15: the top handover AS
        // joins ~62% of attacks, most join under 10%).
        let mut carriers: Vec<Asn> = members.iter().map(|m| m.asn).collect();
        carriers.shuffle(&mut self.rng);
        let carrier_count = (carriers.len() * 3 / 5).max(2);
        carriers.truncate(carrier_count);
        // NSPs transit for more reflector origins than other carriers —
        // which is why the paper's top-100 traffic sources are NSP-heavy
        // (Fig. 8): list them twice in the round-robin.
        let nsp_extra: Vec<Asn> = carriers
            .iter()
            .copied()
            .filter(|a| self.population.registry.org_type(*a) == OrgType::Nsp)
            .collect();
        carriers.extend(nsp_extra);
        carriers.shuffle(&mut self.rng);

        // The paper's top origin AS and top handover AS coincide: an NSP
        // member hosting amplifiers itself.
        let heavy = self
            .population
            .members
            .iter()
            .find(|m| self.population.registry.org_type(m.asn) == OrgType::Nsp)
            .unwrap_or(&self.population.members[0])
            .asn;
        let mut origin_pairs: Vec<(Asn, Asn)> = vec![(heavy, heavy)];
        for i in 1..self.config.amplifier_origins {
            let handover = carriers[i as usize % carriers.len()];
            origin_pairs.push((Asn(50_000 + i), handover));
        }
        let mut accepting: Vec<Asn> = members
            .iter()
            .zip(&self.population.classes)
            .filter(|(_, c)| matches!(c, PolicyClass::Accepting | PolicyClass::Full))
            .map(|(m, _)| m.asn)
            .collect();
        accepting.shuffle(&mut self.rng);
        accepting.truncate((accepting.len() / 8).max(2));
        self.accept_mega = accepting;

        self.heavy_hitter_origin = heavy;
        self.pool = AmplifierPool::synthesize(&AmplifierPoolSpec {
            origins: origin_pairs,
            base_participation: 0.6,
            participation_exponent: 0.55,
            amplifiers_per_origin: 15.0,
            pool_size_per_origin: 512,
            address_base: Ipv4Addr::new(20, 0, 0, 0),
            heavy_hitter_boost: 2.2,
            volume_sigma: 0.8,
        });
    }

    fn next_id(&mut self) -> u32 {
        let id = self.next_event_id;
        self.next_event_id += 1;
        id
    }

    fn next_tag(&mut self) -> u64 {
        let t = self.next_job_tag;
        self.next_job_tag += 1;
        t
    }

    /// A fresh victim of the given host profile: picks an origin AS whose
    /// organisation type matches the Table 4 conditionals, allocates a /22
    /// block, seeds its regular route and returns
    /// `(origin idx, block, victim address)`.
    fn victim_block_for(&mut self, host: HostProfile) -> (usize, Prefix, Ipv4Addr) {
        let stratum = match host {
            HostProfile::Client => 0,
            HostProfile::Server => 1,
            HostProfile::Silent => 2,
        };
        let wanted = self.type_quota.draw(stratum, victim_type_table(host));
        let origin_idx = self.space.origin_of_type(wanted, &mut self.rng);
        let block = self.space.alloc_block(origin_idx);
        let (origin, member, _) = self.space.origins[origin_idx];
        self.seeds.push((block, origin, member));
        // Victim host inside the first /24 of the block.
        let victim = block.network().wrapping_add(self.rng.gen_range(2..250));
        (origin_idx, block, victim)
    }

    /// A uniformly random event start with enough pre-window (72 h + 26 h
    /// EWMA warm-up headroom) and tail room.
    fn random_event_start(&mut self, min_tail: TimeDelta) -> Timestamp {
        let lo = TimeDelta::hours(98).as_millis();
        let hi = (self.corpus_end - min_tail).as_millis().max(lo + 1);
        Timestamp::from_millis(self.rng.gen_range(lo..hi))
    }

    /// Blocked peers for targeted blackholing, per phase.
    fn blocked_peers_for(&mut self, start: Timestamp, long_lived: bool) -> Vec<Asn> {
        let day = start.day() as u32;
        let in_phase = self
            .config
            .targeted_phase
            .is_some_and(|(a, b)| day >= a && day <= b);
        let member_asns = self.population.member_asns();
        if in_phase && !long_lived && self.rng.gen_bool(0.08) {
            // Targeted announcement: hide from a modest random subset.
            let share = self.rng.gen_range(0.03..0.20);
            let n = ((member_asns.len() as f64) * share) as usize;
            let mut peers = member_asns;
            peers.shuffle(&mut self.rng);
            peers.truncate(n);
            peers
        } else if !in_phase && self.rng.gen_bool(0.008) {
            let mut peers = member_asns;
            peers.shuffle(&mut self.rng);
            peers.truncate(self.rng.gen_range(1..=2));
            peers
        } else {
            Vec::new()
        }
    }

    /// The generation windows of a baseline host: steady hosts are active
    /// for the whole period; occasional hosts (the majority — the paper saw
    /// only 30% of blackholed IPs on ≥20 days) are active in a few
    /// multi-day blocks, one of which contains `anchor_day` so the traffic
    /// is visible around their RTBH event.
    fn baseline_windows(&mut self, steady: bool, anchor_day: i64) -> Vec<Interval> {
        if steady {
            return vec![Interval::new(Timestamp::EPOCH, self.corpus_end)];
        }
        let total_days = (self.corpus_end.as_millis() / 86_400_000).max(1);
        let mut windows = Vec::new();
        let blocks = self.rng.gen_range(1..=3);
        for b in 0..blocks {
            let len: i64 = self.rng.gen_range(2..=5);
            let start_day = if b == 0 {
                // Anchor block: always provides pre-window data; covers the
                // event day itself only part of the time (hosts are not
                // necessarily active while being blackholed).
                if self.rng.gen_bool(0.6) {
                    (anchor_day - self.rng.gen_range(0..len)).max(0)
                } else {
                    (anchor_day - len).max(0)
                }
            } else {
                self.rng.gen_range(0..total_days.max(1))
            };
            let start = Timestamp::EPOCH + TimeDelta::days(start_day);
            let end = (start + TimeDelta::days(len)).min(self.corpus_end);
            if start < end {
                windows.push(Interval::new(start, end));
            }
        }
        windows
    }

    /// Adds a baseline workload for a victim host with the given profile.
    fn add_baseline(
        &mut self,
        victim: Ipv4Addr,
        member: MemberId,
        host: HostProfile,
        steady: bool,
        anchor_day: i64,
    ) {
        let member_asn = self.population.members[member.0 as usize].asn;
        let windows = self.baseline_windows(steady, anchor_day);
        if host == HostProfile::Client {
            let menu = vec![
                Service::tcp(443),
                Service::udp(443),
                Service::tcp(80),
                Service::udp(3478),
                Service::tcp(8080),
                Service::udp(5222),
                Service::tcp(993),
                Service::udp(123),
            ];
            let pps = if steady {
                self.rng.gen_range(1.5..5.0)
            } else {
                self.rng.gen_range(0.25..0.9)
            };
            let workload = ClientWorkload {
                client: victim,
                handover: member_asn,
                remotes: self.content.clone(),
                service_menu: menu,
                rate: DiurnalRate::eyeball(pps),
                response_factor: self.rng.gen_range(1.0..2.5),
                day_seed: self.rng.gen(),
            };
            for window in windows {
                let tag = self.next_tag();
                self.jobs.push(Job {
                    tag,
                    workload: workload.clone().into(),
                    window,
                });
            }
        } else {
            let services = match self.rng.gen_range(0..3) {
                0 => vec![Service::tcp(443), Service::tcp(80)],
                1 => vec![Service::udp(53), Service::tcp(53)],
                _ => vec![Service::tcp(443)],
            };
            let pps = if steady {
                self.rng.gen_range(1.5..5.0)
            } else {
                self.rng.gen_range(0.25..0.9)
            };
            let workload = ServerWorkload {
                server: victim,
                handover: member_asn,
                services,
                request_rate: DiurnalRate::eyeball(pps),
                response_factor: self.rng.gen_range(0.8..1.5),
                clients: self.eyeballs.clone(),
            };
            for window in windows {
                let tag = self.next_tag();
                self.jobs.push(Job {
                    tag,
                    workload: workload.clone().into(),
                    window,
                });
            }
        }
    }

    /// Plans one visible attack event on an existing victim block.
    fn plan_attack_on(
        &mut self,
        block: Prefix,
        victim: Ipv4Addr,
        origin_idx: usize,
        host: HostProfile,
        start: Timestamp,
    ) {
        let (origin, member, _) = self.space.origins[origin_idx];
        let trigger_peer = self.population.members[member.0 as usize].asn;

        // Blackholed prefix per the length mix, anchored at the victim.
        let len = pick_prefix_len(&mut self.rng);
        let prefix = if len >= 24 {
            Prefix::new(victim, len).expect("len ok")
        } else {
            Prefix::new(block.network(), len.max(22)).expect("len ok")
        };

        // Attack parameters. Rates shrink for the rarely-hit length bands so
        // the traffic-share-by-length distribution matches Fig. 5.
        let rate_scale = match prefix.len() {
            32 => 1.0,
            24 => 0.15,
            25..=31 => 0.01,
            _ => 0.08,
        };
        let peak_pps = (lognormal(2000.0, 1.0, &mut self.rng) * rate_scale).clamp(60.0, 60_000.0);
        let duration_min = lognormal(150.0, 0.8, &mut self.rng).clamp(10.0, 720.0) as i64;
        let short = self.rng.gen_bool(self.config.short_attack_share);
        let attack_start = start;
        // Reaction delay: mostly automatic within minutes (Fig. 12).
        let delay = if self.rng.gen_bool(0.85) {
            TimeDelta::minutes(self.rng.gen_range(1..=8))
        } else {
            TimeDelta::minutes(self.rng.gen_range(10..=55))
        };
        let rtbh_start = attack_start + delay;
        let attack_end = if short {
            // Attack fizzles before the blackhole arrives (mitigated
            // elsewhere, or the flood simply stopped). A fizzle gap of up to
            // 16 minutes splits these between the ≤10-min anomaly class and
            // the paper's "anomaly only within the hour" 6%.
            (rtbh_start - TimeDelta::minutes(self.rng.gen_range(0..=16)))
                .max(attack_start + TimeDelta::minutes(1))
        } else {
            attack_start + TimeDelta::minutes(duration_min.max(delay.as_minutes() + 5))
        };
        let attack_end = attack_end.min(self.corpus_end);
        let attack_window = Interval::new(attack_start, attack_end);

        let hard = self.rng.gen_bool(self.config.hard_attack_share);
        let envelope = AttackEnvelope {
            peak_pps,
            ramp_ms: TimeDelta::seconds(self.rng.gen_range(10..=120)).as_millis(),
        };
        let (workload, vectors): (AnyWorkload, Vec<AmplificationProtocol>) = if hard {
            let style: f64 = self.rng.gen();
            if style < 0.10 {
                (
                    SynFlood {
                        victim,
                        dst_port: if self.rng.gen_bool(0.5) { 443 } else { 80 },
                        spoofed: self.spoofed.clone(),
                        attack_window,
                        envelope,
                    }
                    .into(),
                    Vec::new(),
                )
            } else {
                let protocols = if style < 0.80 {
                    vec![Protocol::Udp]
                } else {
                    vec![Protocol::Udp, Protocol::Udp, Protocol::Tcp, Protocol::Icmp]
                };
                (
                    RandomPortFlood {
                        victim,
                        spoofed: self.spoofed.clone(),
                        protocols,
                        attack_window,
                        envelope,
                        rising_ports: (0.65..0.80).contains(&style),
                    }
                    .into(),
                    Vec::new(),
                )
            }
        } else {
            let n = pick_vector_count(&mut self.rng);
            let mut vectors = Vec::new();
            while vectors.len() < n {
                let v = pick_vector(&mut self.rng);
                if !vectors.contains(&v) {
                    vectors.push(v);
                }
            }
            let drawn = self.pool.draw_attack_set(&mut self.rng);
            if drawn.is_empty() {
                // No reflector joined this flood: like the bilateral
                // planner, plan no event rather than a traffic-less attack.
                return;
            }
            let amplifiers = self.maybe_concentrate(drawn);
            let fragment_share = if self.rng.gen_bool(0.12) {
                self.rng.gen_range(0.04..0.10)
            } else {
                0.0
            };
            (
                AmplificationAttack {
                    victim,
                    vectors: vectors.clone(),
                    amplifiers,
                    attack_window,
                    envelope,
                    fragment_share,
                }
                .into(),
                vectors,
            )
        };
        let tag = self.next_tag();
        self.jobs.push(Job {
            tag,
            workload: workload.clone(),
            window: attack_window,
        });

        // Real floods fluctuate: when the reaction takes a while, the
        // opening salvo is often the strongest slot of the pre-RTBH window,
        // so the slot right before the announcement is the maximum in only
        // ~15% of the paper's cases (Fig. 13). Slow-reaction attacks get an
        // onset burst ending well before the announcement; others sometimes
        // get a mid-attack burst.
        if !short {
            if let AnyWorkload::Amplification(base) = &workload {
                let span = attack_window.duration().as_millis();
                let onset_room = delay >= TimeDelta::minutes(5);
                let (burst_start, burst_end) = if onset_room {
                    (attack_window.start, rtbh_start - TimeDelta::minutes(6))
                } else if span > TimeDelta::minutes(30).as_millis() && self.rng.gen_bool(0.45) {
                    let start = attack_window.start
                        + TimeDelta::millis((span as f64 * self.rng.gen_range(0.05..0.5)) as i64);
                    let end = (start + TimeDelta::minutes(self.rng.gen_range(3..15)))
                        .min(attack_window.end);
                    (start, end)
                } else {
                    (attack_window.start, attack_window.start) // no burst
                };
                if burst_start < burst_end {
                    let mut burst = base.clone();
                    burst.attack_window = Interval::new(burst_start, burst_end);
                    burst.envelope = AttackEnvelope::flat(peak_pps * self.rng.gen_range(3.0..5.5));
                    let tag = self.next_tag();
                    self.jobs.push(Job {
                        tag,
                        workload: burst.into(),
                        window: Interval::new(burst_start, burst_end),
                    });
                }
            }
        }

        let spans = mitigation_spans(rtbh_start, attack_end, self.corpus_end, &mut self.rng);
        let blocked_peers = self.blocked_peers_for(rtbh_start, false);
        let id = self.next_id();
        self.events.push(PlannedEvent {
            id,
            kind: EventKind::AttackVisible {
                vectors,
                hard_to_filter: hard,
                attack_window,
                peak_pps,
            },
            prefix,
            victim,
            trigger_peer,
            origin,
            host,
            announcement_spans: spans,
            blocked_peers,
        });
    }

    /// Roughly half of the floods are *carrier-dominated*: one reflector
    /// pool behind a single member carries the bulk of the traffic. Whether
    /// that carrier accepts or rejects /32 blackholes then decides the
    /// event's drop rate almost alone — this is what spreads Fig. 6's /32
    /// distribution to its 0.30/0.53/0.88 quartiles.
    fn maybe_concentrate(
        &mut self,
        amplifiers: Vec<rtbh_traffic::Amplifier>,
    ) -> Vec<rtbh_traffic::Amplifier> {
        if amplifiers.len() < 10 || !self.rng.gen_bool(0.65) {
            return amplifiers;
        }
        let accepts: std::collections::BTreeMap<Asn, bool> = self
            .population
            .members
            .iter()
            .zip(&self.population.classes)
            .map(|(m, c)| {
                (
                    m.asn,
                    matches!(c, PolicyClass::Accepting | PolicyClass::Full),
                )
            })
            .collect();
        let want_accepting = self.rng.gen_bool(0.62);
        // Origins whose carrier matches the wanted acceptance behaviour.
        // Accept-dominated attacks additionally funnel through the small
        // mega-carrier pool, so accepting volume concentrates on few ASes
        // while rejecting volume spreads wide.
        let mut matching_origins: Vec<Asn> = amplifiers
            .iter()
            .filter(|a| accepts.get(&a.handover).copied().unwrap_or(false) == want_accepting)
            .map(|a| a.origin)
            .collect();
        matching_origins.sort();
        matching_origins.dedup();
        if matching_origins.is_empty() {
            return amplifiers;
        }
        let pick = self.rng.gen_range(0..matching_origins.len());
        let dominant = matching_origins[pick];
        let mut dominant_pool: Vec<rtbh_traffic::Amplifier> = amplifiers
            .iter()
            .filter(|a| a.origin == dominant)
            .copied()
            .collect();
        if want_accepting && !self.accept_mega.is_empty() {
            // Re-home the dominant pool onto one accepting mega-carrier
            // (origins are frequently multihomed; the mega carries this
            // attack's reflected volume).
            let mega = self.accept_mega[self.rng.gen_range(0..self.accept_mega.len())];
            for a in &mut dominant_pool {
                a.handover = mega;
            }
        }
        if dominant_pool.is_empty() {
            return amplifiers;
        }
        let share = self.rng.gen_range(0.80..0.97);
        let total = amplifiers.len();
        let dominant_count = ((total as f64) * share) as usize;
        let mut out = Vec::with_capacity(total);
        for i in 0..dominant_count {
            out.push(dominant_pool[i % dominant_pool.len()]);
        }
        out.extend(
            amplifiers
                .iter()
                .filter(|a| a.origin != dominant)
                .take(total - dominant_count),
        );
        out
    }

    fn plan_visible_attacks(&mut self) {
        let mut remaining = self.config.visible_attack_events;
        while remaining > 0 {
            let host = if self.rng.gen_bool(self.config.baseline_host_share) {
                if self.rng.gen_bool(self.config.client_victim_share) {
                    HostProfile::Client
                } else {
                    HostProfile::Server
                }
            } else {
                HostProfile::Silent
            };
            let (origin_idx, block, victim) = self.victim_block_for(host);
            let repeats = if self.rng.gen_bool(0.25) {
                self.rng.gen_range(2u32..=4).min(remaining)
            } else {
                1
            };
            // Spread repeat attacks across the period, ≥ 6 h apart.
            let mut starts: Vec<Timestamp> = (0..repeats)
                .map(|_| self.random_event_start(TimeDelta::hours(14)))
                .collect();
            starts.sort();
            starts.dedup_by(|b, a| (*b - *a).abs() < TimeDelta::hours(6));
            if host != HostProfile::Silent {
                let member = self.space.origins[origin_idx].1;
                let steady = self.rng.gen_bool(0.3);
                let anchor = starts.first().map(|s| s.day()).unwrap_or(0);
                self.add_baseline(victim, member, host, steady, anchor);
            }
            for start in starts {
                self.plan_attack_on(block, victim, origin_idx, host, start);
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
        }
    }

    fn plan_constant_events(&mut self) {
        for _ in 0..self.config.constant_events {
            // By definition these victims have steady baseline traffic.
            let host = if self.rng.gen_bool(self.config.client_victim_share) {
                HostProfile::Client
            } else {
                HostProfile::Server
            };
            let (origin_idx, _block, victim) = self.victim_block_for(host);
            let (origin, member, _) = self.space.origins[origin_idx];
            let trigger_peer = self.population.members[member.0 as usize].asn;
            let len = if self.rng.gen_bool(0.9) { 32 } else { 24 };
            let prefix = Prefix::new(victim, len).expect("len ok");
            let start = self.random_event_start(TimeDelta::hours(10));
            let steady = self.rng.gen_bool(0.3);
            self.add_baseline(victim, member, host, steady, start.day());
            // Heavy-tailed durations: most hours, some days-to-weeks
            // (the long-lived "Other" events of Fig. 19).
            let duration_min = lognormal(110.0, 1.6, &mut self.rng).clamp(20.0, 40_000.0);
            let end = (start + TimeDelta::minutes(duration_min as i64)).min(self.corpus_end);
            let spans = if self.rng.gen_bool(0.6) {
                vec![Interval::new(start, end)]
            } else {
                mitigation_spans(start, end, self.corpus_end, &mut self.rng)
            };
            let long_lived = duration_min > 10_000.0;
            let blocked_peers = self.blocked_peers_for(start, long_lived);
            let id = self.next_id();
            self.events.push(PlannedEvent {
                id,
                kind: EventKind::ConstantTraffic,
                prefix,
                victim,
                trigger_peer,
                origin,
                host,
                announcement_spans: spans,
                blocked_peers,
            });
        }
    }

    fn plan_invisible_events(&mut self) {
        // A slice of the invisible events reproduces Fig. 4's early-October
        // deviation: long-lived blackholes announced during the targeted
        // phase with large distribution block-lists, withdrawn at its end.
        let batch = if self.config.targeted_phase.is_some() {
            (self.config.invisible_events / 90)
                .clamp(2, 8)
                .min(self.config.invisible_events)
        } else {
            0
        };
        if let Some((phase_start, phase_end)) = self.config.targeted_phase {
            let member_asns = self.population.member_asns();
            for _ in 0..batch {
                let (origin_idx, _block, victim) = self.victim_block_for(HostProfile::Silent);
                let (origin, member, _) = self.space.origins[origin_idx];
                let trigger_peer = self.population.members[member.0 as usize].asn;
                let start = Timestamp::EPOCH
                    + TimeDelta::days(phase_start as i64)
                    + TimeDelta::minutes(self.rng.gen_range(0..2880));
                let end = (Timestamp::EPOCH + TimeDelta::days(phase_end as i64 + 1)
                    - TimeDelta::minutes(self.rng.gen_range(0..1440)))
                .min(self.corpus_end);
                if start >= end {
                    continue;
                }
                let share = self.rng.gen_range(0.55..0.85);
                let mut peers = member_asns.clone();
                peers.shuffle(&mut self.rng);
                peers.truncate((peers.len() as f64 * share) as usize);
                let id = self.next_id();
                self.events.push(PlannedEvent {
                    id,
                    kind: EventKind::AttackInvisible,
                    prefix: Prefix::host(victim),
                    victim,
                    trigger_peer,
                    origin,
                    host: HostProfile::Silent,
                    announcement_spans: vec![Interval::new(start, end)],
                    blocked_peers: peers,
                });
            }
        }
        for _ in batch..self.config.invisible_events {
            let (origin_idx, _block, victim) = self.victim_block_for(HostProfile::Silent);
            let (origin, member, _) = self.space.origins[origin_idx];
            let trigger_peer = self.population.members[member.0 as usize].asn;
            let prefix = if self.rng.gen_bool(0.95) {
                Prefix::host(victim)
            } else {
                Prefix::new(victim, 24).expect("len 24")
            };
            let start = self.random_event_start(TimeDelta::hours(8));
            let duration_min = lognormal(90.0, 1.0, &mut self.rng).clamp(10.0, 2000.0);
            let end = (start + TimeDelta::minutes(duration_min as i64)).min(self.corpus_end);
            let spans = mitigation_spans(start, end, self.corpus_end, &mut self.rng);
            let blocked_peers = self.blocked_peers_for(start, false);
            let id = self.next_id();
            self.events.push(PlannedEvent {
                id,
                kind: EventKind::AttackInvisible,
                prefix,
                victim,
                trigger_peer,
                origin,
                host: HostProfile::Silent,
                announcement_spans: spans,
                blocked_peers,
            });
        }
    }

    fn plan_zombies(&mut self) {
        for _ in 0..self.config.zombie_events {
            let (origin_idx, _block, victim) = self.victim_block_for(HostProfile::Silent);
            let (origin, member, _) = self.space.origins[origin_idx];
            let trigger_peer = self.population.members[member.0 as usize].asn;
            let prefix = Prefix::host(victim);
            // Announced somewhere in the first 60% of the period, forgotten.
            let lo = TimeDelta::hours(2).as_millis();
            let hi = (self.corpus_end.as_millis() as f64 * 0.6) as i64;
            let start = Timestamp::from_millis(self.rng.gen_range(lo..hi.max(lo + 1)));
            let spans = vec![Interval::new(start, self.corpus_end)];
            // A whisper of background radiation: a handful of samples.
            let noise = ScanNoise {
                target: prefix,
                scanners: self.spoofed.clone(),
                pps: self.rng.gen_range(0.00005..0.0006),
            };
            let tag = self.next_tag();
            self.jobs.push(Job {
                tag,
                workload: noise.into(),
                window: Interval::new(Timestamp::EPOCH, self.corpus_end),
            });
            let id = self.next_id();
            self.events.push(PlannedEvent {
                id,
                kind: EventKind::Zombie,
                prefix,
                victim,
                trigger_peer,
                origin,
                host: HostProfile::Silent,
                announcement_spans: spans,
                blocked_peers: Vec::new(),
            });
        }
    }

    fn plan_squatting(&mut self) {
        let (asn_count, prefix_count) = self.config.squatting;
        if asn_count == 0 || prefix_count == 0 {
            return;
        }
        // Squatting protectors are dedicated origin ASes announcing unused
        // space they own; prefixes are ≤ /24 and stay up for months.
        let mut allocated = 0;
        'outer: for a in 0..asn_count {
            let origin_idx = self.rng.gen_range(0..self.space.origins.len());
            let (_, member, _) = self.space.origins[origin_idx];
            let origin = Asn(2500 + a);
            let trigger_peer = self.population.members[member.0 as usize].asn;
            let per_asn = (prefix_count - allocated).div_ceil(asn_count - a);
            for _ in 0..per_asn {
                let block = self.space.alloc_block(origin_idx);
                self.seeds.push((block, origin, member));
                let len = self.rng.gen_range(22..=24);
                let prefix = Prefix::new(block.network(), len).expect("len ok");
                let start = Timestamp::EPOCH + TimeDelta::hours(self.rng.gen_range(1..120));
                let spans = vec![Interval::new(start, self.corpus_end)];
                let noise = ScanNoise {
                    target: prefix,
                    scanners: self.spoofed.clone(),
                    pps: self.rng.gen_range(0.005..0.03),
                };
                let tag = self.next_tag();
                self.jobs.push(Job {
                    tag,
                    workload: noise.into(),
                    window: Interval::new(Timestamp::EPOCH, self.corpus_end),
                });
                let id = self.next_id();
                self.events.push(PlannedEvent {
                    id,
                    kind: EventKind::Squatting,
                    prefix,
                    victim: prefix.network().wrapping_add(1),
                    trigger_peer,
                    origin,
                    host: HostProfile::Silent,
                    announcement_spans: spans,
                    blocked_peers: Vec::new(),
                });
                allocated += 1;
                if allocated >= prefix_count {
                    break 'outer;
                }
            }
        }
    }

    fn plan_bilateral(&mut self) {
        // Long-running moderate floods dropped via blackholes installed
        // outside the route server, at the accepting members carrying them.
        let accepting: Vec<MemberId> = self
            .population
            .members
            .iter()
            .zip(&self.population.classes)
            .filter(|(_, c)| matches!(c, PolicyClass::Accepting | PolicyClass::Full))
            .map(|(m, _)| m.id)
            .collect();
        if accepting.is_empty() {
            return;
        }
        for _ in 0..self.config.bilateral_events {
            let (origin_idx, _block, victim) = self.victim_block_for(HostProfile::Silent);
            let (origin, _, _) = self.space.origins[origin_idx];
            let prefix = Prefix::host(victim);
            let start = self.random_event_start(TimeDelta::hours(30));
            let end = (start + TimeDelta::hours(self.rng.gen_range(4..12))).min(self.corpus_end);
            let window = Interval::new(start, end);
            let amplifiers = self.pool.draw_attack_set(&mut self.rng);
            if amplifiers.is_empty() {
                continue;
            }
            // Kept small: bilateral blackholes explain only ~5% of dropped
            // bytes in the paper (§3.1).
            let attack = AmplificationAttack {
                victim,
                vectors: vec![pick_vector(&mut self.rng)],
                amplifiers,
                attack_window: window,
                envelope: AttackEnvelope::flat(
                    lognormal(120.0, 0.5, &mut self.rng).clamp(40.0, 400.0),
                ),
                fragment_share: 0.0,
            };
            let tag = self.next_tag();
            self.jobs.push(Job {
                tag,
                workload: attack.into(),
                window,
            });
            // Installed at every accepting member: the drop is near-total on
            // the paths that would otherwise deliver.
            self.bilateral.push(BilateralSpec {
                prefix,
                origin,
                members: accepting.clone(),
                span: window,
            });
        }
    }

    fn finish(self) -> Plan {
        let mut events = self.events;
        events.sort_by_key(|e| (e.first_announce(), e.id));
        let origin_types = self
            .space
            .origins
            .iter()
            .map(|(asn, _, t)| (*asn, *t))
            .collect();
        // Route-table snapshot: amplifier space plus chaff ASes that never
        // participate in anything (the paper: only 17% of advertised ASes
        // ever appear as attack origins).
        let mut advertised = self.pool.advertised();
        let chaff = (advertised.len() * 5).min(8000);
        for i in 0..chaff {
            let base = Ipv4Addr::new(77, 0, 0, 0).to_u32() + ((i as u32) << 8);
            if let Some(p) = Prefix::new(Ipv4Addr::from_u32(base), 24) {
                advertised.push((p, Asn(30_000 + i as u32)));
            }
        }
        Plan {
            events,
            origin_types,
            advertised,
            jobs: self.jobs,
            seeds: self.seeds,
            bilateral: self.bilateral,
            heavy_hitter_origin: self.heavy_hitter_origin,
        }
    }
}

/// Plans a full scenario.
pub fn plan(config: &ScenarioConfig, population: &MemberPopulation, rng: ChaChaRng) -> Plan {
    let mut planner = Planner::new(config, population, rng);
    planner.plan_visible_attacks();
    planner.plan_constant_events();
    planner.plan_invisible_events();
    planner.plan_zombies();
    planner.plan_squatting();
    planner.plan_bilateral();
    planner.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::members;

    fn make_plan() -> (ScenarioConfig, Plan) {
        let config = ScenarioConfig::tiny();
        let mut rng = ChaChaRng::seed_from_u64(config.seed);
        let population = members::build(&config, &mut rng);
        let plan = plan(
            &config,
            &population,
            ChaChaRng::seed_from_u64(config.seed ^ 1),
        );
        (config, plan)
    }

    #[test]
    fn event_counts_match_config() {
        let (config, plan) = make_plan();
        assert_eq!(plan.events.len() as u32, config.total_events());
        let visible = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::AttackVisible { .. }))
            .count();
        assert_eq!(visible as u32, config.visible_attack_events);
        let zombies = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Zombie))
            .count();
        assert_eq!(zombies as u32, config.zombie_events);
    }

    #[test]
    fn spans_are_ordered_and_inside_period() {
        let (config, plan) = make_plan();
        let end = Timestamp::EPOCH + TimeDelta::days(config.days as i64);
        for e in &plan.events {
            assert!(!e.announcement_spans.is_empty(), "event {} empty", e.id);
            for w in e.announcement_spans.windows(2) {
                assert!(w[0].end <= w[1].start, "event {} spans overlap", e.id);
            }
            for s in &e.announcement_spans {
                assert!(s.start >= Timestamp::EPOCH && s.end <= end);
                assert!(s.start < s.end);
            }
        }
    }

    #[test]
    fn zombies_never_withdraw() {
        let (config, plan) = make_plan();
        let end = Timestamp::EPOCH + TimeDelta::days(config.days as i64);
        for e in plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Zombie))
        {
            assert_eq!(e.announcement_spans.len(), 1);
            assert_eq!(e.announcement_spans[0].end, end);
        }
    }

    #[test]
    fn squatting_prefixes_are_le_24_and_long_lived() {
        let (config, plan) = make_plan();
        let end = Timestamp::EPOCH + TimeDelta::days(config.days as i64);
        let squats: Vec<_> = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Squatting))
            .collect();
        assert_eq!(squats.len() as u32, config.squatting.1);
        for e in squats {
            assert!(e.prefix.len() <= 24, "{}", e.prefix);
            assert_eq!(e.announcement_spans.last().unwrap().end, end);
        }
    }

    #[test]
    fn attack_events_have_attack_jobs_and_pre_window() {
        let (_config, plan) = make_plan();
        for e in &plan.events {
            if let EventKind::AttackVisible { attack_window, .. } = &e.kind {
                // The attack starts before the first announcement (detection
                // lag) and the first announcement has a 72h+ pre-window.
                assert!(attack_window.start < e.first_announce());
                assert!(
                    e.first_announce() >= Timestamp::EPOCH + TimeDelta::hours(98),
                    "event {} starts too early",
                    e.id
                );
            }
        }
    }

    #[test]
    fn victim_prefixes_are_covered_by_seeds() {
        let (_config, plan) = make_plan();
        for e in &plan.events {
            assert!(
                plan.seeds
                    .iter()
                    .any(|(block, _, _)| block.covers(e.prefix) || e.prefix.covers(*block)),
                "event {} prefix {} not covered by any seed",
                e.id,
                e.prefix
            );
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let (_, a) = make_plan();
        let (_, b) = make_plan();
        assert_eq!(a.events, b.events);
        assert_eq!(a.seeds, b.seeds);
    }

    #[test]
    fn prefix_length_mix_is_host_dominated() {
        // Statistical check on the generator itself.
        let mut rng = ChaChaRng::seed_from_u64(9);
        let mut host = 0;
        for _ in 0..2000 {
            if pick_prefix_len(&mut rng) == 32 {
                host += 1;
            }
        }
        assert!((host as f64 / 2000.0 - 0.85).abs() < 0.03);
    }

    #[test]
    fn mitigation_spans_gaps_stay_below_merge_threshold() {
        let mut rng = ChaChaRng::seed_from_u64(4);
        let start = Timestamp::EPOCH + TimeDelta::hours(100);
        let end = start + TimeDelta::hours(5);
        let corpus_end = Timestamp::EPOCH + TimeDelta::days(9);
        for _ in 0..50 {
            let spans = mitigation_spans(start, end, corpus_end, &mut rng);
            for w in spans.windows(2) {
                let gap = w[1].start - w[0].end;
                assert!(gap <= TimeDelta::minutes(12), "gap {gap}");
                assert!(gap >= TimeDelta::minutes(1));
            }
        }
    }
}
