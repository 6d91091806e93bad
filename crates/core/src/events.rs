//! RTBH event inference (paper §5.1, Figs. 9–10).
//!
//! Victims announce and withdraw blackholes repeatedly to probe whether an
//! attack is still ongoing, so raw announcements vastly overcount incidents:
//! the paper merges on-off patterns whose withdraw→re-announce gap is at
//! most Δ into one *RTBH event*, finding Δ = 10 min the knee (400k
//! announcements → 34k events, 8.5%).

use rtbh_bgp::{blackhole_intervals, UpdateLog};
use rtbh_net::{Asn, Interval, Prefix, TimeDelta, Timestamp};

/// One inferred RTBH event: a maximal run of same-prefix blackhole activity
/// whose internal gaps are all ≤ Δ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtbhEvent {
    /// Dense event id (order of first announcement).
    pub id: usize,
    /// The blackholed prefix.
    pub prefix: Prefix,
    /// The merged announcement spans (each is one announce..withdraw run).
    pub spans: Vec<Interval>,
    /// The triggering peer of the first announcement.
    pub trigger_peer: Asn,
    /// The origin AS of the prefix.
    pub origin: Asn,
    /// True if the final span was still active at corpus end.
    pub open_ended: bool,
}

impl RtbhEvent {
    /// First announcement instant.
    pub fn start(&self) -> Timestamp {
        self.spans.first().expect("events have spans").start
    }

    /// End of the last span.
    pub fn end(&self) -> Timestamp {
        self.spans.last().expect("events have spans").end
    }

    /// The whole event range `[start, end)` — gap traffic is deliberately
    /// included when slicing flows with this (paper: "we include traffic
    /// during these gaps into RTBH events").
    pub fn coverage(&self) -> Interval {
        Interval::new(self.start(), self.end())
    }

    /// Total duration from first announce to last end.
    pub fn duration(&self) -> TimeDelta {
        self.end() - self.start()
    }

    /// Number of announce/withdraw runs merged into the event.
    pub fn announcement_runs(&self) -> usize {
        self.spans.len()
    }
}

/// Per-prefix metadata needed to label events.
fn prefix_meta(updates: &UpdateLog) -> std::collections::BTreeMap<Prefix, (Asn, Asn)> {
    let mut meta = std::collections::BTreeMap::new();
    for u in updates.blackholes() {
        meta.entry(u.prefix).or_insert((u.peer, u.origin));
    }
    meta
}

/// Infers RTBH events by merging per-prefix activity intervals whose gaps
/// are at most `delta`.
pub fn infer_events(
    updates: &UpdateLog,
    delta: TimeDelta,
    corpus_end: Timestamp,
) -> Vec<RtbhEvent> {
    let intervals = blackhole_intervals(updates.updates().iter(), corpus_end);
    events_from_intervals(
        updates,
        intervals.iter().map(|(&p, ivs)| (p, ivs.as_slice())),
        delta,
        corpus_end,
    )
}

/// [`infer_events`] over activity intervals already computed from
/// `updates` by [`blackhole_intervals`] (with the same `corpus_end`), in
/// its prefix order: prepare passes the intervals its sample enricher
/// holds instead of computing them a second time.
pub(crate) fn events_from_intervals<'a>(
    updates: &UpdateLog,
    intervals: impl IntoIterator<Item = (Prefix, &'a [Interval])>,
    delta: TimeDelta,
    corpus_end: Timestamp,
) -> Vec<RtbhEvent> {
    let meta = prefix_meta(updates);
    let mut events = Vec::new();
    for (prefix, spans) in intervals {
        let (trigger_peer, origin) = meta[&prefix];
        let mut current: Vec<Interval> = Vec::new();
        for &span in spans {
            let belongs = current
                .last()
                .is_some_and(|last| span.start - last.end <= delta);
            if !belongs && !current.is_empty() {
                let open_ended = current.last().unwrap().end >= corpus_end;
                events.push(RtbhEvent {
                    id: 0,
                    prefix,
                    spans: std::mem::take(&mut current),
                    trigger_peer,
                    origin,
                    open_ended,
                });
            }
            current.push(span);
        }
        if !current.is_empty() {
            let open_ended = current.last().unwrap().end >= corpus_end;
            events.push(RtbhEvent {
                id: 0,
                prefix,
                spans: current,
                trigger_peer,
                origin,
                open_ended,
            });
        }
    }
    events.sort_by_key(|e| (e.start(), e.prefix));
    for (i, e) in events.iter_mut().enumerate() {
        e.id = i;
    }
    events
}

/// One point of the Δ-sweep of Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeSweepPoint {
    /// The merge threshold.
    pub delta: TimeDelta,
    /// Number of inferred events at this Δ.
    pub events: usize,
    /// Events as a fraction of all blackhole announcements.
    pub event_fraction: f64,
}

/// Sweeps merge thresholds and reports the event-count curve of Fig. 10,
/// plus the Δ=∞ lower bound (events = unique blackholed prefixes).
pub fn merge_sweep(
    updates: &UpdateLog,
    deltas: &[TimeDelta],
    corpus_end: Timestamp,
) -> (Vec<MergeSweepPoint>, f64) {
    let announcements = updates
        .blackhole_related()
        .filter(|u| u.is_announce())
        .count()
        .max(1);
    let curve = deltas
        .iter()
        .map(|&delta| {
            let events = infer_events(updates, delta, corpus_end).len();
            MergeSweepPoint {
                delta,
                events,
                event_fraction: events as f64 / announcements as f64,
            }
        })
        .collect();
    let unique_prefixes = {
        let mut ps: Vec<Prefix> = updates.blackholes().map(|u| u.prefix).collect();
        ps.sort();
        ps.dedup();
        ps.len()
    };
    (curve, unique_prefixes as f64 / announcements as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_bgp::{BgpUpdate, UpdateKind};
    use rtbh_net::{Community, Ipv4Addr};

    fn ts(min: i64) -> Timestamp {
        Timestamp::EPOCH + TimeDelta::minutes(min)
    }

    fn update(min: i64, prefix: &str, kind: UpdateKind) -> BgpUpdate {
        BgpUpdate {
            at: ts(min),
            peer: Asn(77),
            prefix: prefix.parse().unwrap(),
            origin: Asn(88),
            kind,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    fn on_off(prefix: &str, pairs: &[(i64, i64)]) -> Vec<BgpUpdate> {
        pairs
            .iter()
            .flat_map(|&(a, w)| {
                vec![
                    update(a, prefix, UpdateKind::Announce),
                    update(w, prefix, UpdateKind::Withdraw),
                ]
            })
            .collect()
    }

    const END: i64 = 10_000;

    #[test]
    fn small_gaps_merge_large_gaps_split() {
        // Gaps: 5 min (merge), 30 min (split at Δ=10).
        let log = UpdateLog::from_updates(on_off("10.0.0.1/32", &[(0, 20), (25, 40), (70, 90)]));
        let events = infer_events(&log, TimeDelta::minutes(10), ts(END));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].spans.len(), 2);
        assert_eq!(events[0].coverage(), Interval::new(ts(0), ts(40)));
        assert_eq!(events[1].coverage(), Interval::new(ts(70), ts(90)));
        assert_eq!(events[0].announcement_runs(), 2);
        assert!(!events[0].open_ended);
    }

    #[test]
    fn boundary_gap_exactly_delta_merges() {
        let log = UpdateLog::from_updates(on_off("10.0.0.1/32", &[(0, 10), (20, 30)]));
        let events = infer_events(&log, TimeDelta::minutes(10), ts(END));
        assert_eq!(events.len(), 1);
        let events = infer_events(&log, TimeDelta::minutes(9), ts(END));
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn different_prefixes_never_merge() {
        let mut updates = on_off("10.0.0.1/32", &[(0, 10)]);
        updates.extend(on_off("10.0.0.2/32", &[(12, 20)]));
        let log = UpdateLog::from_updates(updates);
        let events = infer_events(&log, TimeDelta::minutes(60), ts(END));
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn dangling_event_is_open_ended() {
        let log = UpdateLog::from_updates(vec![update(5, "10.0.0.1/32", UpdateKind::Announce)]);
        let events = infer_events(&log, TimeDelta::minutes(10), ts(END));
        assert_eq!(events.len(), 1);
        assert!(events[0].open_ended);
        assert_eq!(events[0].end(), ts(END));
    }

    #[test]
    fn ids_follow_start_order() {
        let mut updates = on_off("10.0.0.2/32", &[(50, 60)]);
        updates.extend(on_off("10.0.0.1/32", &[(0, 10)]));
        let log = UpdateLog::from_updates(updates);
        let events = infer_events(&log, TimeDelta::minutes(10), ts(END));
        assert_eq!(events[0].id, 0);
        assert!(events[0].start() < events[1].start());
    }

    #[test]
    fn sweep_is_monotone_and_bounded_by_unique_prefixes() {
        // Two prefixes, several runs each.
        let mut updates = on_off("10.0.0.1/32", &[(0, 20), (25, 45), (120, 150)]);
        updates.extend(on_off("10.0.0.2/32", &[(10, 30), (37, 50)]));
        let log = UpdateLog::from_updates(updates);
        let deltas: Vec<TimeDelta> = (0..=12).map(TimeDelta::minutes).collect();
        let (curve, lower_bound) = merge_sweep(&log, &deltas, ts(END));
        for pair in curve.windows(2) {
            assert!(
                pair[0].events >= pair[1].events,
                "event count must fall with Δ"
            );
        }
        // Lower bound: 2 unique prefixes / 5 announcements.
        assert!((lower_bound - 2.0 / 5.0).abs() < 1e-12);
        assert!(curve.last().unwrap().event_fraction >= lower_bound);
    }

    #[test]
    fn trigger_and_origin_are_carried() {
        let log = UpdateLog::from_updates(on_off("10.0.0.1/32", &[(0, 10)]));
        let events = infer_events(&log, TimeDelta::minutes(10), ts(END));
        assert_eq!(events[0].trigger_peer, Asn(77));
        assert_eq!(events[0].origin, Asn(88));
    }
}

rtbh_json::impl_json! {
    struct RtbhEvent { id, prefix, spans, trigger_peer, origin, open_ended }
}

rtbh_json::impl_json! { struct MergeSweepPoint { delta, events, event_fraction } }
