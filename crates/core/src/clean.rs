//! Corpus cleaning: removing IXP-internal traffic.
//!
//! The paper's collection (§3.1) includes ~47k flows exchanged with internal
//! IXP systems (0.01% of the total); these are removed before any analysis.
//! The IXP knows the MAC addresses of its own devices, which the corpus
//! carries in [`crate::Corpus::internal_macs`].

use std::collections::BTreeSet;

use rtbh_fabric::FlowLog;

use crate::corpus::Corpus;

/// What cleaning removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanReport {
    /// Samples before cleaning.
    pub total: usize,
    /// Samples removed because either MAC belonged to an internal device.
    pub internal_removed: usize,
}

impl CleanReport {
    /// The removed share (0 when the log was empty).
    pub fn removed_share(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.internal_removed as f64 / self.total as f64
        }
    }
}

/// Removes internal-device flows, returning the cleaned log and a report,
/// with the filter sharded over `workers` scoped threads (`0` = one per
/// available core). Chunks are contiguous and concatenated in order, so
/// the kept-sample order — and the resulting log — is identical for every
/// worker count.
///
/// [`crate::pipeline::Analyzer`] no longer calls this: its prepare finds
/// the internal samples in its first pass and skips them while sealing,
/// without copying the log. The function stays for the benchmark's
/// per-layer sweep and as the oracle of the `prepare_diff` suite, and
/// moves to `rtbh-testkit` once the benchmark harness stops calling it.
pub fn clean_flows_with_workers(corpus: &Corpus, workers: usize) -> (FlowLog, CleanReport) {
    let internal: BTreeSet<_> = corpus.internal_macs.iter().copied().collect();
    let total = corpus.flows.len();
    let workers = crate::shard::resolve_workers(workers);
    let partials = crate::shard::map_chunks(corpus.flows.samples(), workers, |_, chunk| {
        chunk
            .iter()
            .filter(|f| !internal.contains(&f.src_mac) && !internal.contains(&f.dst_mac))
            .copied()
            .collect::<Vec<_>>()
    });
    let mut kept = Vec::with_capacity(total);
    for mut p in partials {
        kept.append(&mut p);
    }
    let report = CleanReport {
        total,
        internal_removed: total - kept.len(),
    };
    (FlowLog::from_samples(kept), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_bgp::UpdateLog;
    use rtbh_fabric::FlowSample;
    use rtbh_net::{Asn, Interval, Ipv4Addr, MacAddr, Protocol, Timestamp};
    use rtbh_peeringdb::Registry;

    fn sample(src_mac: MacAddr, dst_mac: MacAddr) -> FlowSample {
        FlowSample {
            at: Timestamp::EPOCH,
            src_mac,
            dst_mac,
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            protocol: Protocol::Udp,
            src_port: 1,
            dst_port: 2,
            packet_len: 100,
            fragment: false,
        }
    }

    fn corpus_with(flows: Vec<FlowSample>, internal: Vec<MacAddr>) -> Corpus {
        Corpus {
            period: Interval::new(Timestamp::EPOCH, Timestamp::EPOCH),
            sampling_rate: 10_000,
            route_server_asn: Asn(6695),
            updates: UpdateLog::new(),
            flows: FlowLog::from_samples(flows),
            members: Vec::new(),
            registry: Registry::new(),
            internal_macs: internal,
            routes: Vec::new(),
            caches: Default::default(),
        }
    }

    #[test]
    fn removes_flows_touching_internal_macs() {
        let internal = MacAddr::from_id(0xF000);
        let corpus = corpus_with(
            vec![
                sample(MacAddr::from_id(1), MacAddr::from_id(2)),
                sample(internal, MacAddr::from_id(2)),
                sample(MacAddr::from_id(1), internal),
            ],
            vec![internal],
        );
        let (clean, report) = clean_flows_with_workers(&corpus, 1);
        assert_eq!(clean.len(), 1);
        assert_eq!(report.total, 3);
        assert_eq!(report.internal_removed, 2);
        assert!((report.removed_share() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_internal_macs_is_identity() {
        let corpus = corpus_with(
            vec![sample(MacAddr::from_id(1), MacAddr::from_id(2))],
            Vec::new(),
        );
        let (clean, report) = clean_flows_with_workers(&corpus, 1);
        assert_eq!(clean.len(), 1);
        assert_eq!(report.internal_removed, 0);
        assert_eq!(report.removed_share(), 0.0);
    }

    #[test]
    fn clean_is_worker_count_invariant() {
        let internal = MacAddr::from_id(0xF000);
        let flows: Vec<FlowSample> = (0..101)
            .map(|i| {
                if i % 7 == 0 {
                    sample(internal, MacAddr::from_id(2))
                } else {
                    sample(MacAddr::from_id(1), MacAddr::from_id(2))
                }
            })
            .collect();
        let corpus = corpus_with(flows, vec![internal]);
        let (reference, ref_report) = clean_flows_with_workers(&corpus, 1);
        for workers in [2, 3, 16] {
            let (sharded, report) = clean_flows_with_workers(&corpus, workers);
            assert_eq!(reference.samples(), sharded.samples(), "{workers} workers");
            assert_eq!(ref_report, report, "{workers} workers");
        }
    }

    #[test]
    fn empty_log_is_safe() {
        let corpus = corpus_with(Vec::new(), vec![MacAddr::from_id(5)]);
        let (clean, report) = clean_flows_with_workers(&corpus, 1);
        assert!(clean.is_empty());
        assert_eq!(report.removed_share(), 0.0);
    }
}

rtbh_json::impl_json! { struct CleanReport { total, internal_removed } }
