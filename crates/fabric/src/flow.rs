//! IPFIX-style sampled packet records — the data-plane corpus.
//!
//! The paper's collection (§3.1) samples 1 out of 10,000 packets at all
//! member-facing ports and keeps, per sample: packet size, source and
//! destination MAC addresses, destination IP address, and transport ports.
//! We additionally keep the source IP (the paper uses it too, e.g. for
//! counting unique sources and amplifier origin ASes) and an IP-fragment
//! flag (its Table 3 treats fragments as an attack trace).

use rtbh_net::{Ipv4Addr, MacAddr, Port, Protocol, Timestamp};

/// One sampled packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSample {
    /// Capture timestamp (data-plane clock).
    pub at: Timestamp,
    /// Source MAC — the member router that handed the packet into the
    /// fabric. MAC-derived, hence not spoofable (paper §5.5).
    pub src_mac: MacAddr,
    /// Destination MAC — the egress member router, or the blackhole MAC.
    pub dst_mac: MacAddr,
    /// Source IP address (spoofable).
    pub src_ip: Ipv4Addr,
    /// Destination IP address.
    pub dst_ip: Ipv4Addr,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Source transport port (0 when the protocol has none or for
    /// non-initial fragments).
    pub src_port: Port,
    /// Destination transport port (0 when the protocol has none or for
    /// non-initial fragments).
    pub dst_port: Port,
    /// Layer-3 packet length in bytes.
    pub packet_len: u16,
    /// True for non-initial IP fragments (no transport header).
    pub fragment: bool,
}

rtbh_json::impl_json! {
    struct FlowSample {
        at, src_mac, dst_mac, src_ip, dst_ip, protocol, src_port, dst_port,
        packet_len, fragment,
    }
}

impl FlowSample {
    /// True if the packet was discarded by the blackholing service
    /// (destination MAC is the blackhole MAC).
    pub fn is_dropped(&self) -> bool {
        self.dst_mac.is_blackhole()
    }
}

/// A time-ordered log of sampled packets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowLog {
    samples: Vec<FlowSample>,
}

rtbh_json::impl_json! { struct FlowLog { samples } }

impl FlowLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a log, sorting samples by capture time (stable).
    pub fn from_samples(mut samples: Vec<FlowSample>) -> Self {
        samples.sort_by_key(|s| s.at);
        Self { samples }
    }

    /// Takes samples the caller has already checked to be in time order,
    /// as they are (checked in debug builds).
    pub(crate) fn from_sorted(samples: Vec<FlowSample>) -> Self {
        debug_assert!(
            samples.windows(2).all(|w| w[0].at <= w[1].at),
            "samples must be in time order"
        );
        Self { samples }
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[FlowSample] {
        &self.samples
    }

    /// Gives up the samples, in time order, without copying them.
    pub fn into_samples(self) -> Vec<FlowSample> {
        self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples with `dst_ip` inside the given prefix.
    pub fn towards(&self, prefix: rtbh_net::Prefix) -> impl Iterator<Item = &FlowSample> {
        self.samples
            .iter()
            .filter(move |s| prefix.contains_addr(s.dst_ip))
    }

    /// The dropped (blackholed) samples.
    pub fn dropped(&self) -> impl Iterator<Item = &FlowSample> {
        self.samples.iter().filter(|s| s.is_dropped())
    }

    /// Merges two logs into a new time-ordered log.
    pub fn merge(mut self, other: FlowLog) -> FlowLog {
        self.samples.extend(other.samples);
        Self::from_samples(self.samples)
    }

    /// The index range of samples with `at` in `[start, end)` — logs are
    /// time-sorted so slicing by time is a pair of binary searches.
    pub fn time_range(&self, start: Timestamp, end: Timestamp) -> &[FlowSample] {
        let lo = self.samples.partition_point(|s| s.at < start);
        let hi = self.samples.partition_point(|s| s.at < end);
        &self.samples[lo..hi]
    }
}

impl FromIterator<FlowSample> for FlowLog {
    fn from_iter<I: IntoIterator<Item = FlowSample>>(iter: I) -> Self {
        Self::from_samples(iter.into_iter().collect())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use rtbh_net::TimeDelta;

    pub fn sample(min: i64, dst_ip: &str, dropped: bool) -> FlowSample {
        FlowSample {
            at: Timestamp::EPOCH + TimeDelta::minutes(min),
            src_mac: MacAddr::from_id(1),
            dst_mac: if dropped {
                MacAddr::BLACKHOLE
            } else {
                MacAddr::from_id(2)
            },
            src_ip: "198.51.100.10".parse().unwrap(),
            dst_ip: dst_ip.parse().unwrap(),
            protocol: Protocol::Udp,
            src_port: 389,
            dst_port: 443,
            packet_len: 1400,
            fragment: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::sample;
    use super::*;
    use rtbh_net::{Prefix, TimeDelta};

    #[test]
    fn dropped_detection_by_mac() {
        assert!(sample(0, "203.0.113.7", true).is_dropped());
        assert!(!sample(0, "203.0.113.7", false).is_dropped());
    }

    #[test]
    fn from_samples_sorts() {
        let log = FlowLog::from_samples(vec![
            sample(9, "10.0.0.1", false),
            sample(1, "10.0.0.2", true),
        ]);
        assert!(log.samples()[0].is_dropped());
    }

    #[test]
    fn towards_filters_by_prefix() {
        let log = FlowLog::from_samples(vec![
            sample(0, "203.0.113.7", true),
            sample(1, "203.0.113.9", false),
            sample(2, "198.51.100.1", false),
        ]);
        let p: Prefix = "203.0.113.0/24".parse().unwrap();
        assert_eq!(log.towards(p).count(), 2);
        assert_eq!(log.dropped().count(), 1);
    }

    #[test]
    fn time_range_is_half_open() {
        let log = FlowLog::from_samples((0..10).map(|m| sample(m, "10.0.0.1", false)).collect());
        let start = Timestamp::EPOCH + TimeDelta::minutes(2);
        let end = Timestamp::EPOCH + TimeDelta::minutes(5);
        let window = log.time_range(start, end);
        assert_eq!(window.len(), 3);
        assert_eq!(window.first().unwrap().at, start);
    }

    #[test]
    fn merge_orders_globally() {
        let a = FlowLog::from_samples(vec![sample(5, "10.0.0.1", false)]);
        let b = FlowLog::from_samples(vec![sample(1, "10.0.0.2", false)]);
        let merged = a.merge(b);
        assert_eq!(merged.len(), 2);
        assert!(merged.samples()[0].at < merged.samples()[1].at);
    }
}
