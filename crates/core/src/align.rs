//! Control/data-plane clock alignment (paper §3.1, Fig. 2).
//!
//! Dropped-marked samples (destination MAC = blackhole MAC) must coincide
//! with a control-plane interval in which a blackhole covering their
//! destination was announced; voting over a grid of candidate offsets and
//! maximising that coincidence recovers the inter-recorder clock skew (the
//! paper: 99.36% overlap at −0.04 s).

use rtbh_bgp::{blackhole_intervals, UpdateLog};
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_net::{FrozenLpm, Interval, TimeDelta, Timestamp};
use rtbh_stats::offset::{OffsetScan, OffsetVotes};

use crate::shard;

/// The alignment estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// The full likelihood curve and its argmax.
    pub scan: OffsetScan,
    /// Number of dropped samples used.
    pub dropped_samples: usize,
}

impl Alignment {
    /// The estimated data-plane clock offset: subtracting it from sample
    /// timestamps aligns the data plane to the control plane. (If samples
    /// are stamped 40 ms early, the scan's best offset is +40 ms.)
    pub fn estimated_offset(&self) -> TimeDelta {
        self.scan.best.offset
    }

    /// The maximal explained-sample share.
    pub fn best_overlap(&self) -> f64 {
        self.scan.best.overlap
    }

    /// The alignment of per-shard partial votes, merged in order (the
    /// integer sums are exact, so any sharding gives the same curve).
    /// `None` without partials (an invalid grid) or without a dropped
    /// sample.
    pub(crate) fn from_votes(partials: Vec<OffsetVotes>) -> Option<Self> {
        let votes = partials.into_iter().reduce(|mut all, partial| {
            all.merge(&partial);
            all
        })?;
        Some(Self {
            scan: votes.scan()?,
            dropped_samples: votes.samples(),
        })
    }
}

/// Estimates the clock offset between the flow log and the update log over
/// the grid `[-half_range, +half_range]` in `step` increments, with the
/// dropped samples voting on `workers` scoped threads (`0` = one per
/// available core). Returns `None` when there are no dropped samples to
/// align or the grid is invalid (see [`OffsetVotes::new`]).
///
/// Each contiguous chunk of the log looks its dropped samples up in a
/// [`FrozenLpm`] of the blackhole activity intervals and counts their
/// [`OffsetVotes`]; the chunks' integer votes add exactly, so the curve and
/// argmax are identical for every worker count.
///
/// [`crate::pipeline::Analyzer`] no longer calls this: its prepare counts
/// the same votes in its first pass over the raw log. The function stays
/// for the benchmark's per-layer sweep and as the oracle of the
/// `prepare_diff` suite, and moves to `rtbh-testkit` once the benchmark
/// harness stops calling it.
pub fn estimate_offset_with_workers(
    updates: &UpdateLog,
    flows: &FlowLog,
    corpus_end: Timestamp,
    half_range: TimeDelta,
    step: TimeDelta,
    workers: usize,
) -> Option<Alignment> {
    let empty = OffsetVotes::new(half_range, step)?;
    let intervals = blackhole_intervals(updates.updates().iter(), corpus_end);
    let lpm: FrozenLpm<Vec<Interval>> = FrozenLpm::from_entries(intervals);
    let chunks = shard::map_chunks(
        flows.samples(),
        shard::resolve_workers(workers),
        |_, chunk| {
            let mut votes = empty.clone();
            for s in chunk.iter().filter(|s| s.is_dropped()) {
                let intervals = lpm.longest_match(s.dst_ip).map(|(_, ivs)| ivs.as_slice());
                votes.observe(s.at, intervals.unwrap_or_default());
            }
            votes
        },
    );
    Alignment::from_votes(chunks)
}

/// Shifts every sample timestamp by `offset` (aligning the data plane onto
/// the control-plane clock), sharded over `workers` scoped threads (`0` =
/// one per available core).
///
/// A zero offset returns a plain clone of the input — no per-sample work,
/// no re-sort. Otherwise each chunk of the time-sorted log is shifted
/// independently and the chunks are re-concatenated in order (a constant
/// shift preserves the time order, so the result is already sorted).
///
/// [`crate::pipeline::Analyzer`] no longer calls this: its prepare stamps
/// the corrected timestamps while sealing the chunks. The function stays
/// for the benchmark's per-layer sweep and as the oracle of the
/// `prepare_diff` suite, and moves to `rtbh-testkit` once the benchmark
/// harness stops calling it.
pub fn shift_flows_with_workers(flows: &FlowLog, offset: TimeDelta, workers: usize) -> FlowLog {
    if offset == TimeDelta::ZERO {
        return flows.clone();
    }
    let chunks = shard::map_chunks(
        flows.samples(),
        shard::resolve_workers(workers),
        |_, chunk| {
            chunk
                .iter()
                .map(|s| FlowSample {
                    at: s.at + offset,
                    ..*s
                })
                .collect::<Vec<_>>()
        },
    );
    let mut samples = Vec::with_capacity(flows.len());
    for mut chunk in chunks {
        samples.append(&mut chunk);
    }
    FlowLog::from_samples(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_bgp::{BgpUpdate, UpdateKind};
    use rtbh_net::{Asn, Community, Ipv4Addr, MacAddr, Protocol};

    fn ts(s: i64) -> Timestamp {
        Timestamp::EPOCH + TimeDelta::seconds(s)
    }

    fn update(sec: i64, kind: UpdateKind) -> BgpUpdate {
        BgpUpdate {
            at: ts(sec),
            peer: Asn(1),
            prefix: "10.0.0.7/32".parse().unwrap(),
            origin: Asn(1),
            kind,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    fn dropped_at(ms: i64) -> FlowSample {
        FlowSample {
            at: Timestamp::from_millis(ms),
            src_mac: MacAddr::from_id(3),
            dst_mac: MacAddr::BLACKHOLE,
            src_ip: "8.8.8.8".parse().unwrap(),
            dst_ip: "10.0.0.7".parse().unwrap(),
            protocol: Protocol::Udp,
            src_port: 389,
            dst_port: 5555,
            packet_len: 1400,
            fragment: false,
        }
    }

    #[test]
    fn recovers_injected_skew() {
        // Blackhole active [100 s, 200 s); drops truly occurred inside but
        // were stamped 40 ms early by the data-plane clock.
        let updates = UpdateLog::from_updates(vec![
            update(100, UpdateKind::Announce),
            update(200, UpdateKind::Withdraw),
        ]);
        let true_times: Vec<i64> = (0..200)
            .map(|i| 100_000 + i * 500)
            .chain([100_000, 199_999])
            .collect();
        let flows = FlowLog::from_samples(true_times.iter().map(|t| dropped_at(t - 40)).collect());
        let alignment = estimate_offset_with_workers(
            &updates,
            &flows,
            ts(100_000),
            TimeDelta::millis(500),
            TimeDelta::millis(10),
            1,
        )
        .unwrap();
        assert_eq!(alignment.estimated_offset(), TimeDelta::millis(40));
        assert!(alignment.best_overlap() > 0.99);
        assert_eq!(alignment.dropped_samples, 202);
    }

    #[test]
    fn no_dropped_samples_gives_none() {
        let updates = UpdateLog::from_updates(vec![update(0, UpdateKind::Announce)]);
        let mut s = dropped_at(10);
        s.dst_mac = MacAddr::from_id(9); // forwarded, not dropped
        let flows = FlowLog::from_samples(vec![s]);
        assert!(estimate_offset_with_workers(
            &updates,
            &flows,
            ts(1000),
            TimeDelta::millis(100),
            TimeDelta::millis(10),
            1,
        )
        .is_none());
    }

    #[test]
    fn shift_moves_all_timestamps() {
        let flows = FlowLog::from_samples(vec![dropped_at(1000), dropped_at(2000)]);
        let shifted = shift_flows_with_workers(&flows, TimeDelta::millis(40), 1);
        let ats: Vec<i64> = shifted.samples().iter().map(|s| s.at.as_millis()).collect();
        assert_eq!(ats, vec![1040, 2040]);
    }

    #[test]
    fn zero_offset_shift_returns_the_input_unchanged() {
        let flows = FlowLog::from_samples(vec![dropped_at(1000), dropped_at(2000)]);
        assert_eq!(shift_flows_with_workers(&flows, TimeDelta::ZERO, 1), flows);
        assert_eq!(shift_flows_with_workers(&flows, TimeDelta::ZERO, 8), flows);
    }

    #[test]
    fn worker_count_invariance_of_alignment_and_shift() {
        let updates = UpdateLog::from_updates(vec![
            update(100, UpdateKind::Announce),
            update(200, UpdateKind::Withdraw),
        ]);
        let flows = FlowLog::from_samples(
            (0..300)
                .map(|i| dropped_at(100_000 + i * 331 - 40))
                .collect(),
        );
        let reference = estimate_offset_with_workers(
            &updates,
            &flows,
            ts(100_000),
            TimeDelta::millis(500),
            TimeDelta::millis(10),
            1,
        )
        .unwrap();
        for workers in [2, 5, 16] {
            let sharded = estimate_offset_with_workers(
                &updates,
                &flows,
                ts(100_000),
                TimeDelta::millis(500),
                TimeDelta::millis(10),
                workers,
            )
            .unwrap();
            assert_eq!(sharded, reference, "{workers} workers diverged");
            assert_eq!(
                shift_flows_with_workers(&flows, TimeDelta::millis(40), workers),
                shift_flows_with_workers(&flows, TimeDelta::millis(40), 1),
            );
        }
    }

    #[test]
    fn unexplainable_drops_lower_overlap() {
        let updates = UpdateLog::from_updates(vec![
            update(100, UpdateKind::Announce),
            update(200, UpdateKind::Withdraw),
        ]);
        // One drop inside, one on a prefix that never had a blackhole.
        let mut stray = dropped_at(150_000);
        stray.dst_ip = "99.0.0.1".parse().unwrap();
        let flows = FlowLog::from_samples(vec![dropped_at(150_000), stray]);
        let alignment = estimate_offset_with_workers(
            &updates,
            &flows,
            ts(100_000),
            TimeDelta::ZERO,
            TimeDelta::millis(1),
            1,
        )
        .unwrap();
        assert!((alignment.best_overlap() - 0.5).abs() < 1e-12);
    }
}

rtbh_json::impl_json! { struct Alignment { scan, dropped_samples } }
