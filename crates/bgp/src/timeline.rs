//! Reconstructing blackhole activity intervals from an update log.
//!
//! Every correlation in the paper needs to know *when a given prefix was
//! blackholed* according to the control plane: the offset estimation of
//! Fig. 2, the load curve of Fig. 3, the per-peer visibility of Fig. 4, the
//! drop-rate attribution of Figs. 5–7, and the event inference of §5.1 all
//! start from per-prefix activity intervals.

use std::collections::BTreeMap;

use rtbh_net::{Interval, Prefix, TimeDelta, Timestamp};

use crate::update::{BgpUpdate, UpdateKind};

/// Per-prefix blackhole activity: sorted, disjoint `[announce, withdraw)`
/// intervals.
pub type PrefixIntervals = BTreeMap<Prefix, Vec<Interval>>;

/// Reconstructs per-prefix blackhole activity intervals.
///
/// * Announcements open an interval only when they carry the BLACKHOLE
///   community; consecutive announcements of an already-active prefix are
///   collapsed (re-announcements refresh, they do not nest).
/// * **Withdrawals carry no communities on the wire** (RFC 4271 retracts by
///   prefix alone), so any withdrawal of a currently-blackholed prefix
///   closes it — this is how the paper keys RTBH activity once a prefix has
///   been seen with the community.
/// * A withdrawal without a preceding announcement is ignored.
/// * Prefixes still active at `corpus_end` are closed there, mirroring the
///   end of the measurement period.
///
/// The `updates` iterator must be in non-decreasing time order (an
/// [`crate::UpdateLog`] is) and should include *all* updates, not only the
/// community-tagged ones.
pub fn blackhole_intervals<'a>(
    updates: impl IntoIterator<Item = &'a BgpUpdate>,
    corpus_end: Timestamp,
) -> PrefixIntervals {
    let mut open: BTreeMap<Prefix, Timestamp> = BTreeMap::new();
    let mut closed: PrefixIntervals = BTreeMap::new();
    for u in updates {
        match u.kind {
            UpdateKind::Announce => {
                if u.is_blackhole() {
                    open.entry(u.prefix).or_insert(u.at);
                }
            }
            UpdateKind::Withdraw => {
                if let Some(start) = open.remove(&u.prefix) {
                    if u.at > start {
                        closed
                            .entry(u.prefix)
                            .or_default()
                            .push(Interval::new(start, u.at));
                    }
                }
            }
        }
    }
    for (prefix, start) in open {
        if corpus_end > start {
            closed
                .entry(prefix)
                .or_default()
                .push(Interval::new(start, corpus_end));
        }
    }
    closed
}

/// The number of simultaneously active blackhole prefixes sampled on a fixed
/// grid — the series behind Fig. 3 ("active parallel RTBHs over time").
///
/// Returns `(slot_start, active_count)` pairs for every `step`-spaced instant
/// in `[start, end)`.
pub fn active_count_series(
    intervals: &PrefixIntervals,
    start: Timestamp,
    end: Timestamp,
    step: TimeDelta,
) -> Vec<(Timestamp, usize)> {
    assert!(step.as_millis() > 0, "step must be positive");
    // Event-sweep: +1 at each interval start, -1 at each end.
    let mut deltas: BTreeMap<Timestamp, i64> = BTreeMap::new();
    for ivs in intervals.values() {
        for iv in ivs {
            *deltas.entry(iv.start).or_insert(0) += 1;
            *deltas.entry(iv.end).or_insert(0) -= 1;
        }
    }
    let mut series = Vec::new();
    let mut active: i64 = 0;
    let mut delta_iter = deltas.into_iter().peekable();
    let mut t = start;
    while t < end {
        while let Some(&(at, d)) = delta_iter.peek() {
            if at <= t {
                active += d;
                delta_iter.next();
            } else {
                break;
            }
        }
        series.push((t, active.max(0) as usize));
        t += step;
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::testutil::{bh_announce, bh_withdraw};
    use crate::update::UpdateLog;

    fn ts(min: i64) -> Timestamp {
        Timestamp::EPOCH + TimeDelta::minutes(min)
    }

    #[test]
    fn announce_withdraw_pairs_become_intervals() {
        let log = UpdateLog::from_updates(vec![
            bh_announce(0, 1, "10.0.0.1/32"),
            bh_withdraw(10, 1, "10.0.0.1/32"),
            bh_announce(20, 1, "10.0.0.1/32"),
            bh_withdraw(25, 1, "10.0.0.1/32"),
        ]);
        let ivs = blackhole_intervals(log.updates(), ts(100));
        let got = &ivs[&"10.0.0.1/32".parse().unwrap()];
        assert_eq!(
            got,
            &vec![Interval::new(ts(0), ts(10)), Interval::new(ts(20), ts(25))]
        );
    }

    #[test]
    fn dangling_announce_closed_at_corpus_end() {
        let log = UpdateLog::from_updates(vec![bh_announce(5, 1, "10.0.0.1/32")]);
        let ivs = blackhole_intervals(log.updates(), ts(60));
        let got = &ivs[&"10.0.0.1/32".parse().unwrap()];
        assert_eq!(got, &vec![Interval::new(ts(5), ts(60))]);
    }

    #[test]
    fn redundant_announce_does_not_nest() {
        let log = UpdateLog::from_updates(vec![
            bh_announce(0, 1, "10.0.0.1/32"),
            bh_announce(3, 1, "10.0.0.1/32"),
            bh_withdraw(10, 1, "10.0.0.1/32"),
        ]);
        let ivs = blackhole_intervals(log.updates(), ts(60));
        assert_eq!(
            ivs[&"10.0.0.1/32".parse().unwrap()],
            vec![Interval::new(ts(0), ts(10))]
        );
    }

    #[test]
    fn orphan_withdraw_is_ignored() {
        let log = UpdateLog::from_updates(vec![bh_withdraw(5, 1, "10.0.0.1/32")]);
        assert!(blackhole_intervals(log.updates(), ts(60)).is_empty());
    }

    #[test]
    fn non_blackhole_announcements_are_skipped() {
        let mut regular = bh_announce(0, 1, "10.0.0.0/24");
        regular.communities.clear();
        let log = UpdateLog::from_updates(vec![regular]);
        assert!(blackhole_intervals(log.updates(), ts(60)).is_empty());
    }

    #[test]
    fn bare_wire_withdrawal_closes_a_blackhole() {
        // Real withdrawals carry no communities; they must still close.
        let mut bare = bh_withdraw(10, 1, "10.0.0.1/32");
        bare.communities.clear();
        let log = UpdateLog::from_updates(vec![bh_announce(0, 1, "10.0.0.1/32"), bare]);
        let ivs = blackhole_intervals(log.updates(), ts(60));
        assert_eq!(
            ivs[&"10.0.0.1/32".parse().unwrap()],
            vec![Interval::new(ts(0), ts(10))]
        );
    }

    #[test]
    fn zero_length_interval_is_dropped() {
        let log = UpdateLog::from_updates(vec![
            bh_announce(5, 1, "10.0.0.1/32"),
            bh_withdraw(5, 1, "10.0.0.1/32"),
        ]);
        assert!(blackhole_intervals(log.updates(), ts(60)).is_empty());
    }

    #[test]
    fn active_count_series_steps_correctly() {
        let log = UpdateLog::from_updates(vec![
            bh_announce(0, 1, "10.0.0.1/32"),
            bh_announce(2, 2, "10.0.0.2/32"),
            bh_withdraw(4, 1, "10.0.0.1/32"),
            bh_withdraw(6, 2, "10.0.0.2/32"),
        ]);
        let ivs = blackhole_intervals(log.updates(), ts(100));
        let series = active_count_series(&ivs, ts(0), ts(8), TimeDelta::minutes(1));
        let counts: Vec<usize> = series.iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, vec![1, 1, 2, 2, 1, 1, 0, 0]);
    }

    #[test]
    fn intervals_per_prefix_are_sorted_disjoint() {
        let log = UpdateLog::from_updates(vec![
            bh_announce(0, 1, "10.0.0.1/32"),
            bh_withdraw(1, 1, "10.0.0.1/32"),
            bh_announce(2, 1, "10.0.0.1/32"),
            bh_withdraw(3, 1, "10.0.0.1/32"),
            bh_announce(4, 1, "10.0.0.1/32"),
        ]);
        let ivs = blackhole_intervals(log.updates(), ts(10));
        let got = &ivs[&"10.0.0.1/32".parse().unwrap()];
        for w in got.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        assert_eq!(got.len(), 3);
    }
}
