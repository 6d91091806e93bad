//! Targeted-blackholing visibility (paper §4.1, Fig. 4).
//!
//! A member can instruct the route server to announce its blackhole only to
//! selected peers. This module reconstructs, for every instant, which share
//! of the currently announced blackholes each peer does **not** see, and
//! reports the per-peer distribution over time: the paper found a brief
//! early-October phase where the median peer missed up to 6.2% (one peer
//! 10.8%), and ≤0.2% afterwards — i.e. the collateral-damage-reducing
//! feature is "virtually ignored".

use std::collections::BTreeMap;

use rtbh_bgp::{UpdateKind, UpdateLog};
use rtbh_net::{Asn, Community, Interval, Prefix, TimeDelta, Timestamp};
use rtbh_stats::quantile::quantile_sorted_by;

/// One grid instant of the Fig. 4 series: quantiles over peers of the share
/// of active blackholes invisible to them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibilityPoint {
    /// Grid instant.
    pub at: Timestamp,
    /// Simultaneously active blackhole announcements.
    pub active: usize,
    /// Median peer's missed share.
    pub median: f64,
    /// 99th-percentile peer's missed share.
    pub p99: f64,
    /// Worst single peer's missed share.
    pub max: f64,
}

/// One announce-run with its distribution restrictions resolved.
struct ActivityItem {
    interval: Interval,
    /// Peers that do NOT receive this announcement (distribution filtering
    /// only; the sender itself is not counted as filtered), as indices into
    /// the sorted, deduplicated peer list. A peer listed twice in `peers`
    /// appears twice.
    hidden_from: Vec<u32>,
}

/// Resolves the hidden-peer set of one announcement's communities.
fn hidden_peers(
    communities: &[Community],
    peers: &[Asn],
    route_server: Asn,
    sender: Asn,
) -> Vec<Asn> {
    // `block_all` and every `block_peer` have the form `0:x`; without one
    // no peer can be hidden.
    if communities.iter().all(|c| c.asn != 0) {
        return Vec::new();
    }
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

/// Builds the activity items (announce-run + hidden peers) from the log;
/// `distinct` is the sorted, deduplicated `peers`.
fn activity_items(
    updates: &UpdateLog,
    peers: &[Asn],
    distinct: &[Asn],
    route_server: Asn,
    corpus_end: Timestamp,
) -> Vec<ActivityItem> {
    let mut open: BTreeMap<Prefix, (Timestamp, Vec<u32>)> = BTreeMap::new();
    let mut items = Vec::new();
    for u in updates.updates() {
        match u.kind {
            UpdateKind::Announce => {
                if !u.is_blackhole() {
                    continue;
                }
                open.entry(u.prefix).or_insert_with(|| {
                    let hidden = hidden_peers(&u.communities, peers, route_server, u.peer)
                        .into_iter()
                        .map(|p| distinct.binary_search(&p).expect("a listed peer") as u32)
                        .collect();
                    (u.at, hidden)
                });
            }
            UpdateKind::Withdraw => {
                if let Some((start, hidden_from)) = open.remove(&u.prefix) {
                    if u.at > start {
                        items.push(ActivityItem {
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
            items.push(ActivityItem {
                interval: Interval::new(start, corpus_end),
                hidden_from,
            });
        }
    }
    items
}

/// The first grid index whose instant `start + k·step` is at or after `t`,
/// capped at `slots` (the grid size).
fn grid_index(t: Timestamp, start: Timestamp, step_ms: i64, slots: usize) -> usize {
    let d = i128::from(t.as_millis()) - i128::from(start.as_millis());
    if d <= 0 {
        return 0;
    }
    let step = i128::from(step_ms);
    let k = (d + step - 1) / step;
    usize::try_from(k).map_or(slots, |k| k.min(slots))
}

/// Computes the Fig. 4 series on a fixed grid.
///
/// An item is active on one contiguous range of grid indices: from the
/// first instant at or after its start to the first instant at or after
/// its end. Entries and exits are bucketed by grid index, so an instant
/// touches only the items that enter or leave at it, and the quantiles are
/// recomputed only at instants where something did; other instants repeat
/// the previous point. The quantiles sort only the nonzero shares; the
/// other peers' shares are implicit zeros read through
/// [`quantile_sorted_by`], so every value equals the one of the
/// materialized, sorted share vector.
pub fn visibility_series(
    updates: &UpdateLog,
    peers: &[Asn],
    route_server: Asn,
    period: Interval,
    step: TimeDelta,
) -> Vec<VisibilityPoint> {
    assert!(step.as_millis() > 0, "step must be positive");
    let step_ms = step.as_millis();
    let mut distinct = peers.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let items = activity_items(updates, peers, &distinct, route_server, period.end);

    let span = (period.end - period.start).as_millis();
    let slots = if span > 0 {
        (span / step_ms + i64::from(span % step_ms != 0)) as usize
    } else {
        0
    };
    // (grid index, item, enters) — an item that leaves before the next
    // instant after its start is never active.
    let mut changes: Vec<(usize, u32, bool)> = Vec::with_capacity(2 * items.len());
    for (i, item) in items.iter().enumerate() {
        let enter = grid_index(item.interval.start, period.start, step_ms, slots);
        let exit = grid_index(item.interval.end, period.start, step_ms, slots);
        if enter < exit {
            changes.push((enter, i as u32, true));
            if exit < slots {
                changes.push((exit, i as u32, false));
            }
        }
    }
    changes.sort_unstable_by_key(|c| c.0);

    let peer_count = peers.len().max(1);
    let mut hidden = vec![0u32; distinct.len()];
    let mut sorted: Vec<u32> = Vec::new();
    let mut active = 0usize;
    let (mut median, mut p99, mut max) = (0.0, 0.0, 0.0);
    let mut next = 0;
    let mut series = Vec::with_capacity(slots);
    let mut t = period.start;
    for k in 0..slots {
        if changes.get(next).is_some_and(|c| c.0 == k) {
            while let Some(&(_, i, enters)) = changes.get(next).filter(|c| c.0 == k) {
                let item = &items[i as usize];
                if enters {
                    active += 1;
                    item.hidden_from
                        .iter()
                        .for_each(|&p| hidden[p as usize] += 1);
                } else {
                    active -= 1;
                    item.hidden_from
                        .iter()
                        .for_each(|&p| hidden[p as usize] -= 1);
                }
                next += 1;
            }
            sorted.clear();
            sorted.extend(hidden.iter().copied().filter(|&c| c > 0));
            (median, p99, max) = if active == 0 || sorted.is_empty() {
                (0.0, 0.0, 0.0)
            } else {
                sorted.sort_unstable();
                // Peers missing from `sorted` see everything (share 0).
                let zeros = peer_count - sorted.len();
                let share = |j: usize| {
                    if j < zeros {
                        0.0
                    } else {
                        sorted[j - zeros] as f64 / active as f64
                    }
                };
                let q = |q: f64| quantile_sorted_by(peer_count, q, share);
                (q(0.5), q(0.99), q(1.0))
            };
        }
        series.push(VisibilityPoint {
            at: t,
            active,
            median,
            p99,
            max,
        });
        t += step;
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_bgp::BgpUpdate;
    use rtbh_net::Ipv4Addr;

    const RS: Asn = Asn(6695);

    fn ts(min: i64) -> Timestamp {
        Timestamp::EPOCH + TimeDelta::minutes(min)
    }

    fn update(min: i64, prefix: &str, kind: UpdateKind, extra: Vec<Community>) -> BgpUpdate {
        let mut communities = vec![Community::BLACKHOLE];
        communities.extend(extra);
        BgpUpdate {
            at: ts(min),
            peer: Asn(1),
            prefix: prefix.parse().unwrap(),
            origin: Asn(1),
            kind,
            communities,
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    fn peers() -> Vec<Asn> {
        (1..=4).map(Asn).collect()
    }

    #[test]
    fn untargeted_blackholes_are_visible_everywhere() {
        let log = UpdateLog::from_updates(vec![
            update(0, "10.0.0.1/32", UpdateKind::Announce, vec![]),
            update(10, "10.0.0.1/32", UpdateKind::Withdraw, vec![]),
        ]);
        let series = visibility_series(
            &log,
            &peers(),
            RS,
            Interval::new(ts(0), ts(12)),
            TimeDelta::minutes(1),
        );
        for p in &series {
            assert_eq!(p.max, 0.0, "at {}", p.at);
        }
        assert_eq!(series[5].active, 1);
        assert_eq!(series[11].active, 0);
    }

    #[test]
    fn blocked_peer_misses_its_share() {
        // Two active blackholes, one hidden from peer 3.
        let log = UpdateLog::from_updates(vec![
            update(0, "10.0.0.1/32", UpdateKind::Announce, vec![]),
            update(
                0,
                "10.0.0.2/32",
                UpdateKind::Announce,
                vec![Community::block_peer(Asn(3)).unwrap()],
            ),
        ]);
        let series = visibility_series(
            &log,
            &peers(),
            RS,
            Interval::new(ts(1), ts(2)),
            TimeDelta::minutes(1),
        );
        let p = &series[0];
        assert_eq!(p.active, 2);
        // Peer 3 misses 1 of 2 → max 0.5; the median peer misses nothing.
        assert!((p.max - 0.5).abs() < 1e-12);
        assert_eq!(p.median, 0.0);
    }

    #[test]
    fn allow_list_hides_from_everyone_else() {
        let log = UpdateLog::from_updates(vec![update(
            0,
            "10.0.0.1/32",
            UpdateKind::Announce,
            vec![
                Community::block_all(RS).unwrap(),
                Community::announce_peer(RS, Asn(2)).unwrap(),
            ],
        )]);
        let series = visibility_series(
            &log,
            &peers(),
            RS,
            Interval::new(ts(1), ts(2)),
            TimeDelta::minutes(1),
        );
        let p = &series[0];
        // Peers 3 and 4 miss it (sender 1 not counted, peer 2 allowed):
        // 2 of 4 peers have share 1.0 → median sits at 0.5 of sorted
        // [0, 0, 1, 1] = 0.5 interpolated.
        assert_eq!(p.active, 1);
        assert!((p.max - 1.0).abs() < 1e-12);
        assert!(p.median > 0.0);
    }

    #[test]
    fn withdrawn_items_leave_the_sweep() {
        let log = UpdateLog::from_updates(vec![
            update(
                0,
                "10.0.0.1/32",
                UpdateKind::Announce,
                vec![Community::block_peer(Asn(2)).unwrap()],
            ),
            update(5, "10.0.0.1/32", UpdateKind::Withdraw, vec![]),
            update(6, "10.0.0.9/32", UpdateKind::Announce, vec![]),
        ]);
        let series = visibility_series(
            &log,
            &peers(),
            RS,
            Interval::new(ts(0), ts(10)),
            TimeDelta::minutes(1),
        );
        assert!(series[4].max > 0.0);
        assert_eq!(series[7].max, 0.0, "after withdraw nothing is hidden");
        assert_eq!(series[7].active, 1);
    }
}

rtbh_json::impl_json! { struct VisibilityPoint { at, active, median, p99, max } }
