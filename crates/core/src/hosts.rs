//! Host behaviour classification (paper §6.1–6.2, Figs. 16–17, Table 4).
//!
//! Outside attack windows, blackholed hosts reveal what they are:
//!
//! * servers receive traffic on few stable destination ports from many
//!   client source ports → low *top-port variation*;
//! * clients receive responses on ever-fresh ephemeral ports → top-port
//!   variation near 1.
//!
//! The paper's surprise: among hosts with ≥20 active days, clients outnumber
//! servers ~4:1 — thousands of blackholed victims are DSL subscribers and
//! gamers, not servers.
//!
//! [`analyze_hosts`] reads the sealed chunks once, in row order: nearly
//! every row has a blackholed prefix on one side (838,790 of the 840,360
//! kept rows of the scale-0.25 corpus), so it buckets each row outside its
//! prefix's exclusion windows as a 16-byte row of that prefix, then sorts
//! and sweeps one prefix at a time.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use rtbh_net::{Asn, Interval, Ipv4Addr, Prefix, Protocol, Service, TimeDelta, Timestamp};
use rtbh_peeringdb::{OrgType, Registry};
use rtbh_stats::{radviz_project, RadvizPoint};

use crate::columns::{ColumnarFlows, NONE};
use crate::events::RtbhEvent;
use crate::index::{IntervalCursor, SampleIndex};

/// Host classification outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostClass {
    /// Stable top ports — behaves like a server.
    Server,
    /// Daily-changing top ports — behaves like a client.
    Client,
    /// Enough data but ambiguous variation.
    Ambiguous,
    /// Fewer than the required active days.
    InsufficientData,
}

/// Configuration of the host analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Minimum days with *both* incoming and outgoing traffic (paper: 20).
    pub min_days: usize,
    /// Reaction time prepended to each event when excluding attack traffic
    /// (paper: 10 minutes).
    pub reaction: TimeDelta,
    /// Variation at or below which a host counts as a server.
    pub server_max_variation: f64,
    /// Variation at or above which a host counts as a client.
    pub client_min_variation: f64,
}

impl HostConfig {
    /// The paper's configuration.
    pub const PAPER: Self = Self {
        min_days: 20,
        reaction: TimeDelta::minutes(10),
        server_max_variation: 1.0 / 3.0,
        client_min_variation: 2.0 / 3.0,
    };
}

impl Default for HostConfig {
    fn default() -> Self {
        Self::PAPER
    }
}

/// One analysed host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRecord {
    /// The host address.
    pub addr: Ipv4Addr,
    /// The most specific blackholed prefix covering it.
    pub prefix: Prefix,
    /// The origin AS of that prefix (from the blackhole updates).
    pub origin: Asn,
    /// Days with incoming traffic (outside exclusion windows).
    pub days_in: usize,
    /// Days with outgoing traffic.
    pub days_out: usize,
    /// Port-diversity features: unique `[src-in, src-out, dst-in, dst-out]`
    /// ports.
    pub port_features: [usize; 4],
    /// The RadViz projection of the normalised features (Fig. 16).
    pub radviz: RadvizPoint,
    /// The distinct per-day top incoming services.
    pub top_services: Vec<Service>,
    /// Top-port variation: distinct top services / days with incoming
    /// traffic. `None` without incoming days.
    pub port_variation: Option<f64>,
    /// The classification.
    pub class: HostClass,
}

/// The corpus-wide host analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct HostAnalysis {
    /// All hosts that ever appeared in traffic to/from a blackholed prefix.
    pub hosts: Vec<HostRecord>,
    /// The configuration used.
    pub config: HostConfig,
}

impl HostAnalysis {
    /// Hosts of one class.
    pub fn of_class(&self, class: HostClass) -> impl Iterator<Item = &HostRecord> {
        self.hosts.iter().filter(move |h| h.class == class)
    }

    /// `(clients, servers)` counts (Fig. 17 / Table 4 headline).
    pub fn client_server_counts(&self) -> (usize, usize) {
        (
            self.of_class(HostClass::Client).count(),
            self.of_class(HostClass::Server).count(),
        )
    }

    /// Share of hosts meeting the ≥`min_days` criterion (paper: only 30%).
    pub fn eligible_share(&self) -> f64 {
        if self.hosts.is_empty() {
            return 0.0;
        }
        self.hosts
            .iter()
            .filter(|h| h.class != HostClass::InsufficientData)
            .count() as f64
            / self.hosts.len() as f64
    }

    /// Table 4: org-type histograms for `(clients, servers)`.
    pub fn org_type_table(
        &self,
        registry: &Registry,
    ) -> (BTreeMap<OrgType, usize>, BTreeMap<OrgType, usize>) {
        let clients: Vec<Asn> = self.of_class(HostClass::Client).map(|h| h.origin).collect();
        let servers: Vec<Asn> = self.of_class(HostClass::Server).map(|h| h.origin).collect();
        (
            registry.type_histogram(clients.iter()),
            registry.type_histogram(servers.iter()),
        )
    }

    /// Fig. 17 scatter material: `(days_in, port_variation, class)` for all
    /// hosts with incoming data.
    pub fn variation_scatter(&self) -> Vec<(usize, f64, HostClass)> {
        self.hosts
            .iter()
            .filter_map(|h| h.port_variation.map(|v| (h.days_in, v, h.class)))
            .collect()
    }
}

/// Builds per-prefix exclusion windows: every event's coverage with the
/// reaction time prepended.
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

/// Runs the host analysis: one pass over the rows, then one sorted sweep
/// per blackholed prefix.
///
/// `towards` and `from` are keyed by the same longest-prefix match, so every
/// host address belongs to exactly one prefix and per-prefix work is exact.
/// The pass buckets the rows outside their prefix's exclusion windows per
/// prefix, in row order (`bucket`); each prefix's rows are then stably
/// sorted by host, which orders them by `(host, row)`, and each host's
/// features come from one pass over its run of rows. The records are
/// sorted by address at the end.
pub fn analyze_hosts(
    events: &[RtbhEvent],
    index: &SampleIndex,
    cols: &ColumnarFlows,
    config: &HostConfig,
) -> HostAnalysis {
    let exclusions = exclusion_windows(events, config.reaction);
    // Origin per prefix from the events.
    let origin_of: BTreeMap<Prefix, Asn> = events.iter().map(|e| (e.prefix, e.origin)).collect();
    let windows: Vec<&[Interval]> = index
        .prefixes()
        .iter()
        .map(|p| exclusions.get(p).map_or(&[][..], Vec::as_slice))
        .collect();
    let (mut incoming_of, mut outgoing_of) = bucket(index, cols, &windows);

    let mut sweep = HostSweep::new();
    let mut hosts = Vec::new();
    for (pid, &prefix) in index.prefixes().iter().enumerate() {
        let origin = origin_of.get(&prefix).copied().unwrap_or(Asn::RESERVED);
        let mut incoming = std::mem::take(&mut incoming_of[pid]);
        let mut outgoing = std::mem::take(&mut outgoing_of[pid]);
        // Stable: each prefix's rows are in row order, so each host's run
        // stays in row order.
        incoming.sort_by_key(|row| row.host);
        outgoing.sort_by_key(|row| row.host);

        let (mut a, mut b) = (0, 0);
        while let Some(host) = [incoming.get(a), outgoing.get(b)]
            .into_iter()
            .flatten()
            .map(|row| row.host)
            .min()
        {
            let (a_end, b_end) = (run_end(&incoming, a, host), run_end(&outgoing, b, host));
            let mut top = Vec::new();
            let [days_in, src_in, dst_in] = sweep.walk(&incoming[a..a_end], Some(&mut top));
            let [days_out, src_out, dst_out] = sweep.walk(&outgoing[b..b_end], None);
            (a, b) = (a_end, b_end);

            let port_features = [src_in, src_out, dst_in, dst_out];
            let normalised: Vec<f64> = port_features
                .iter()
                .map(|&c| (c as f64 / 65535.0).min(1.0))
                .collect();
            // One top service per day with TCP/UDP traffic.
            let service_days = top.len();
            top.sort_unstable();
            top.dedup();
            let port_variation = (service_days > 0).then(|| top.len() as f64 / service_days as f64);
            let eligible = days_in.min(days_out) >= config.min_days;
            let class = if !eligible {
                HostClass::InsufficientData
            } else {
                match port_variation {
                    Some(v) if v <= config.server_max_variation => HostClass::Server,
                    Some(v) if v >= config.client_min_variation => HostClass::Client,
                    _ => HostClass::Ambiguous,
                }
            };
            hosts.push(HostRecord {
                addr: Ipv4Addr::from_u32(host),
                prefix,
                origin,
                days_in,
                days_out,
                port_features,
                radviz: radviz_project(&normalised),
                top_services: top.into_iter().map(service_of_slot).collect(),
                port_variation,
                class,
            });
        }
    }
    hosts.sort_unstable_by_key(|h| h.addr);
    HostAnalysis {
        hosts,
        config: *config,
    }
}

/// What the sweep reads of one sample, in 16 bytes.
struct Row {
    host: u32,
    src_port: u16,
    dst_port: u16,
    /// The day (`Timestamp::day`) shifted left by 8, over the protocol
    /// number. An `i64` millisecond timestamp's day lies within ±2^37, so
    /// the shift loses nothing.
    day_protocol: i64,
}

const _: () = assert!(std::mem::size_of::<Row>() == 16);

impl Row {
    #[inline]
    fn new(host: u32, at: i64, src_port: u16, dst_port: u16, protocol: u8) -> Self {
        Self {
            host,
            src_port,
            dst_port,
            day_protocol: Timestamp(at).day() << 8 | i64::from(protocol),
        }
    }

    #[inline]
    fn day(&self) -> i64 {
        self.day_protocol >> 8
    }

    #[inline]
    fn protocol(&self) -> Protocol {
        Protocol::from_number(self.day_protocol as u8)
    }
}

/// Per blackholed prefix id, its incoming and its outgoing rows outside
/// `windows[id]`, in row order, from one sequential pass over the chunks:
/// a row joins the incoming rows of its destination's prefix and the
/// outgoing rows of its source's prefix. Nearly every row carries one of
/// the two, so reading the columns in row order beats gathering each
/// prefix's ids from all over the log. The vectors are sized by the
/// index's lists, which bound them, and one forward cursor per prefix
/// walks its windows as the time-sorted rows ascend.
fn bucket(
    index: &SampleIndex,
    cols: &ColumnarFlows,
    windows: &[&[Interval]],
) -> (Vec<Vec<Row>>, Vec<Vec<Row>>) {
    let mut incoming: Vec<Vec<Row>> = (0..windows.len())
        .map(|pid| Vec::with_capacity(index.towards(pid).len()))
        .collect();
    let mut outgoing: Vec<Vec<Row>> = (0..windows.len())
        .map(|pid| Vec::with_capacity(index.from(pid).len()))
        .collect();
    let mut excluded = vec![IntervalCursor::NEW; windows.len()];
    let mut outside = |pid: usize, at: i64| !excluded[pid].contains(windows[pid], Timestamp(at));
    for c in cols.chunks() {
        let (dst_pids, src_pids) = (c.dst_prefix_ids(), c.src_prefix_ids());
        for (r, &at) in c.at_millis().iter().enumerate() {
            let (dst_pid, src_pid) = (dst_pids[r], src_pids[r]);
            if dst_pid == NONE && src_pid == NONE {
                continue;
            }
            let (sport, dport, proto) = (c.src_ports()[r], c.dst_ports()[r], c.protocols()[r]);
            if dst_pid != NONE && outside(dst_pid as usize, at) {
                let row = Row::new(c.dst_ip_raw()[r], at, sport, dport, proto);
                incoming[dst_pid as usize].push(row);
            }
            if src_pid != NONE && outside(src_pid as usize, at) {
                let row = Row::new(c.src_ip_raw()[r], at, sport, dport, proto);
                outgoing[src_pid as usize].push(row);
            }
        }
    }
    (incoming, outgoing)
}

/// The end of `host`'s run of rows, which starts at `start` and may be
/// empty.
fn run_end(rows: &[Row], start: usize, host: u32) -> usize {
    start + rows[start..].partition_point(|row| row.host == host)
}

/// The reusable scratch of the sweep. Each table is emptied by undoing only
/// what the last host touched, so a host costs its rows, not the tables.
struct HostSweep {
    src_ports: PortSet,
    dst_ports: PortSet,
    services: ServiceCounts,
}

impl HostSweep {
    fn new() -> Self {
        Self {
            src_ports: PortSet::new(),
            dst_ports: PortSet::new(),
            services: ServiceCounts::new(),
        }
    }

    /// One pass over a host's run: its active days and its distinct source
    /// and destination ports. With `top`, also pushes the top service slot
    /// of every day that had TCP/UDP rows.
    fn walk(&mut self, run: &[Row], mut top: Option<&mut Vec<u32>>) -> [usize; 3] {
        let mut days = 0;
        let mut today = None;
        for row in run {
            if today != Some(row.day()) {
                // Rows ascend within a run and the flow log is time-sorted,
                // so a day never comes back once the run has left it.
                debug_assert!(today < Some(row.day()), "host run is not time-sorted");
                if let Some(top) = top.as_deref_mut() {
                    top.extend(self.services.take_top());
                }
                days += 1;
                today = Some(row.day());
            }
            self.src_ports.insert(row.src_port);
            self.dst_ports.insert(row.dst_port);
            if top.is_some() {
                self.services.add(row.protocol(), row.dst_port);
            }
        }
        if let Some(top) = top {
            top.extend(self.services.take_top());
        }
        [days, self.src_ports.take_len(), self.dst_ports.take_len()]
    }
}

/// A set of ports, one bit per port.
pub(crate) struct PortSet {
    words: Box<[u64; 1024]>,
    /// The indices of the non-zero words.
    touched: Vec<u16>,
}

impl PortSet {
    pub(crate) fn new() -> Self {
        Self {
            words: Box::new([0; 1024]),
            touched: Vec::new(),
        }
    }

    pub(crate) fn insert(&mut self, port: u16) {
        let w = usize::from(port >> 6);
        if self.words[w] == 0 {
            self.touched.push(w as u16);
        }
        self.words[w] |= 1 << (port & 63);
    }

    /// The number of distinct ports inserted; empties the set.
    pub(crate) fn take_len(&mut self) -> usize {
        let words = &mut self.words;
        self.touched
            .drain(..)
            .map(|w| std::mem::take(&mut words[usize::from(w)]).count_ones() as usize)
            .sum()
    }
}

/// One day's packet counts per TCP/UDP service, by slot
/// `protocol << 16 | port` with TCP = 0 and UDP = 1, so that slot order is
/// [`Service`] order.
struct ServiceCounts {
    counts: Vec<u32>,
    /// The slots with a non-zero count.
    touched: Vec<u32>,
}

impl ServiceCounts {
    fn new() -> Self {
        Self {
            counts: vec![0; 2 << 16],
            touched: Vec::new(),
        }
    }

    /// Counts one packet; rows without ports carry no service.
    fn add(&mut self, protocol: Protocol, port: u16) {
        let slot = match protocol {
            Protocol::Tcp => usize::from(port),
            Protocol::Udp => 1 << 16 | usize::from(port),
            _ => return,
        };
        if self.counts[slot] == 0 {
            self.touched.push(slot as u32);
        }
        self.counts[slot] += 1;
    }

    /// The day's top service slot (most packets, then the smallest
    /// service), or `None` without TCP/UDP rows; resets the counts.
    fn take_top(&mut self) -> Option<u32> {
        let counts = &mut self.counts;
        self.touched
            .drain(..)
            .map(|slot| (std::mem::take(&mut counts[slot as usize]), Reverse(slot)))
            .max()
            .map(|(_, Reverse(slot))| slot)
    }
}

fn service_of_slot(slot: u32) -> Service {
    let protocol = if slot >> 16 == 0 {
        Protocol::Tcp
    } else {
        Protocol::Udp
    };
    Service::new(protocol, slot as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{MacResolver, OriginTable};
    use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
    use rtbh_fabric::{FlowLog, FlowSample};
    use rtbh_net::{Community, MacAddr, Protocol, Timestamp};

    fn config() -> HostConfig {
        HostConfig {
            min_days: 3,
            ..HostConfig::PAPER
        }
    }

    fn bh(prefix: &str) -> BgpUpdate {
        BgpUpdate {
            at: Timestamp::EPOCH,
            peer: Asn(9),
            prefix: prefix.parse().unwrap(),
            origin: Asn(42),
            kind: UpdateKind::Announce,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    fn event(prefix: &str, start_day: i64) -> RtbhEvent {
        let start = Timestamp::EPOCH + TimeDelta::days(start_day);
        RtbhEvent {
            id: 0,
            prefix: prefix.parse().unwrap(),
            spans: vec![Interval::new(start, start + TimeDelta::hours(1))],
            trigger_peer: Asn(9),
            origin: Asn(42),
            open_ended: false,
        }
    }

    fn flow(day: i64, minute: i64, src: &str, dst: &str, sport: u16, dport: u16) -> FlowSample {
        FlowSample {
            at: Timestamp::EPOCH + TimeDelta::days(day) + TimeDelta::minutes(minute),
            src_mac: MacAddr::from_id(1),
            dst_mac: MacAddr::from_id(2),
            src_ip: src.parse().unwrap(),
            dst_ip: dst.parse().unwrap(),
            protocol: Protocol::Tcp,
            src_port: sport,
            dst_port: dport,
            packet_len: 500,
            fragment: false,
        }
    }

    const HOST: &str = "10.0.0.7";

    fn build(flows: Vec<FlowSample>, events: Vec<RtbhEvent>) -> HostAnalysis {
        let updates = UpdateLog::from_updates(vec![bh("10.0.0.7/32")]);
        let enriched = ColumnarFlows::build_enriched(
            &updates,
            &FlowLog::from_samples(flows),
            &MacResolver::from_map(BTreeMap::new()),
            &OriginTable::build(&[]),
            Timestamp::EPOCH,
            1,
        );
        let index = SampleIndex::from_columns(
            enriched.blackholes,
            enriched.blackhole_prefixes,
            &enriched.columns,
            1,
        );
        analyze_hosts(&events, &index, &enriched.columns, &config())
    }

    #[test]
    fn server_pattern_detected() {
        // Incoming always on TCP/443 from varying client ports, outgoing
        // responses from 443 — across 5 days.
        let mut flows = Vec::new();
        for day in 0..5 {
            for k in 0..5u16 {
                flows.push(flow(
                    day,
                    k as i64,
                    "100.64.0.1",
                    HOST,
                    40_000 + day as u16 * 10 + k,
                    443,
                ));
                flows.push(flow(
                    day,
                    k as i64 + 10,
                    HOST,
                    "100.64.0.1",
                    443,
                    41_000 + day as u16 * 10 + k,
                ));
            }
        }
        let analysis = build(flows, vec![]);
        let host = analysis
            .hosts
            .iter()
            .find(|h| h.addr.to_string() == HOST)
            .unwrap();
        assert_eq!(host.class, HostClass::Server);
        assert_eq!(host.top_services, vec![Service::tcp(443)]);
        assert!(host.port_variation.unwrap() <= 0.34);
        // RadViz: incoming src-port diversity dominates → pulled towards
        // anchor 0 (positive x).
        assert!(host.radviz.x > 0.0);
    }

    #[test]
    fn client_pattern_detected() {
        // Incoming responses hit a different ephemeral port every day.
        let mut flows = Vec::new();
        for day in 0..5 {
            for k in 0..4u16 {
                let eph = 50_000 + day as u16 * 97 + k;
                flows.push(flow(day, k as i64, "52.0.0.1", HOST, 443, eph));
                flows.push(flow(day, k as i64 + 10, HOST, "52.0.0.1", eph, 443));
            }
        }
        let analysis = build(flows, vec![]);
        let host = analysis
            .hosts
            .iter()
            .find(|h| h.addr.to_string() == HOST)
            .unwrap();
        assert_eq!(host.class, HostClass::Client);
        assert!(host.port_variation.unwrap() >= 0.66);
        let (clients, servers) = analysis.client_server_counts();
        assert_eq!((clients, servers), (1, 0));
    }

    #[test]
    fn too_few_days_is_insufficient() {
        let flows = vec![
            flow(0, 0, "100.64.0.1", HOST, 40_000, 443),
            flow(0, 1, HOST, "100.64.0.1", 443, 41_000),
        ];
        let analysis = build(flows, vec![]);
        let host = analysis
            .hosts
            .iter()
            .find(|h| h.addr.to_string() == HOST)
            .unwrap();
        assert_eq!(host.class, HostClass::InsufficientData);
        assert!(analysis.eligible_share() < 1.0);
    }

    #[test]
    fn event_windows_are_excluded() {
        // All traffic lands inside an event (plus its reaction lead-in):
        // nothing is counted as legitimate.
        let ev = event("10.0.0.7/32", 1);
        let inside = (0..10)
            .map(|k| flow(1, k, "100.64.0.1", HOST, 40_000 + k as u16, 443))
            .collect();
        let analysis = build(inside, vec![ev]);
        assert!(
            analysis.hosts.iter().all(|h| h.days_in == 0),
            "attack-window traffic must not build host profiles"
        );
    }

    #[test]
    fn origin_is_taken_from_events_or_reserved() {
        let flows = vec![flow(0, 0, "100.64.0.1", HOST, 40_000, 443)];
        let analysis = build(flows, vec![event("10.0.0.7/32", 5)]);
        let host = analysis
            .hosts
            .iter()
            .find(|h| h.addr.to_string() == HOST)
            .unwrap();
        assert_eq!(host.origin, Asn(42));
    }

    /// `count` incoming packets to `HOST` on one service, on `day`.
    fn incoming(day: i64, protocol: Protocol, dport: u16, count: u16) -> Vec<FlowSample> {
        (0..count)
            .map(|k| FlowSample {
                protocol,
                ..flow(day, k as i64, "100.64.0.1", HOST, 40_000 + k, dport)
            })
            .collect()
    }

    fn host_of(analysis: &HostAnalysis) -> &HostRecord {
        analysis
            .hosts
            .iter()
            .find(|h| h.addr.to_string() == HOST)
            .unwrap()
    }

    #[test]
    fn daily_top_service_ties_pick_the_smallest_service() {
        let flows = [
            // Equal counts: TCP before UDP, then the smaller port.
            incoming(0, Protocol::Udp, 53, 2),
            incoming(0, Protocol::Tcp, 8080, 2),
            incoming(0, Protocol::Tcp, 443, 2),
            // TCP wins a tie even on a larger port.
            incoming(1, Protocol::Udp, 1, 1),
            incoming(1, Protocol::Tcp, 65535, 1),
            // Equal UDP counts: the smaller port.
            incoming(2, Protocol::Udp, 9, 3),
            incoming(2, Protocol::Udp, 7, 3),
            // More packets beat service order.
            incoming(3, Protocol::Tcp, 1, 1),
            incoming(3, Protocol::Udp, 2, 2),
        ]
        .concat();
        let analysis = build(flows, vec![]);
        let host = host_of(&analysis);
        assert_eq!(
            host.top_services,
            vec![
                Service::tcp(443),
                Service::tcp(65535),
                Service::udp(2),
                Service::udp(7)
            ]
        );
        assert_eq!(host.port_variation, Some(1.0));
    }

    #[test]
    fn portless_days_count_as_active_but_not_as_service_days() {
        let flows = [
            incoming(0, Protocol::Tcp, 443, 2),
            incoming(1, Protocol::Icmp, 0, 3),
            incoming(2, Protocol::Other(47), 0, 1),
        ]
        .concat();
        let analysis = build(flows, vec![]);
        let host = host_of(&analysis);
        assert_eq!(host.days_in, 3);
        assert_eq!(host.top_services, vec![Service::tcp(443)]);
        // One top service over the one day with TCP/UDP traffic, not 1/3.
        assert_eq!(host.port_variation, Some(1.0));
    }

    #[test]
    fn outgoing_only_host_has_no_variation_and_insufficient_data() {
        let flows = (0..5)
            .map(|day| flow(day, 0, HOST, "100.64.0.1", 443, 41_000 + day as u16))
            .collect();
        let analysis = build(flows, vec![]);
        let host = host_of(&analysis);
        assert_eq!((host.days_in, host.days_out), (0, 5));
        assert_eq!(host.port_features, [0, 1, 0, 5]);
        assert!(host.top_services.is_empty());
        assert_eq!(host.port_variation, None);
        assert_eq!(host.class, HostClass::InsufficientData);
    }
}

rtbh_json::impl_json! {
    enum HostClass { Server, Client, Ambiguous, InsufficientData }
}

rtbh_json::impl_json! {
    struct HostConfig { min_days, reaction, server_max_variation, client_min_variation }
}

rtbh_json::impl_json! {
    struct HostRecord {
        addr, prefix, origin, days_in, days_out, port_features, radviz,
        top_services, port_variation, class,
    }
}

rtbh_json::impl_json! { struct HostAnalysis { hosts, config } }
