//! Maximum-likelihood estimation of the control/data-plane clock offset
//! (paper §3.1, Fig. 2).
//!
//! Both measurement pipelines at the IXP synchronise with NTP, but residual
//! skew between the BGP collector and the IPFIX exporters would smear any
//! time-series correlation. The paper estimates the offset by shifting the
//! data plane against the control plane and maximising the share of
//! *dropped-marked* packet samples that fall inside an interval in which a
//! blackhole covering their destination was actually announced. The maximum
//! overlap found was 99.36% at −0.04 s.
//!
//! [`OffsetVotes`] is the one estimator: the caller supplies, per sample,
//! the announcement intervals that would explain it (already filtered to
//! the right prefix), and each sample votes for every grid offset that
//! moves it inside one of them. Votes are integers that add exactly, so
//! chunks of samples counted apart and merged give the same curve as one
//! pass — batch sharding and a live stream share the same arithmetic.

use rtbh_net::{Interval, TimeDelta, Timestamp};

/// One scanned candidate offset and its explained-sample share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetPoint {
    /// Candidate offset added to sample timestamps.
    pub offset: TimeDelta,
    /// Fraction of samples whose shifted timestamp falls inside one of its
    /// explaining intervals.
    pub overlap: f64,
}

rtbh_json::impl_json! { struct OffsetPoint { offset, overlap } }

/// The result of an offset scan: the full likelihood curve plus its argmax.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetScan {
    /// One point per grid offset, in ascending offset order.
    pub curve: Vec<OffsetPoint>,
    /// The point with maximal overlap (ties: smallest |offset|, then the
    /// later grid point).
    pub best: OffsetPoint,
}

rtbh_json::impl_json! { struct OffsetScan { curve, best } }

/// Dropped-sample votes over the symmetric offset grid `-H, -H + S, …`
/// up to `+H` (half-range `H`, step `S`).
///
/// A sample at `t` is explained at offset δ when `t + δ` lies inside one of
/// its intervals, so an interval `[a, b)` votes for every grid δ in
/// `[a − t, b − t)`: one range update on a difference array. Intervals are
/// clipped to the offsets the grid spans before any index is computed, so
/// an interval open to `i64::MAX` cannot overflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffsetVotes {
    half_range_ms: i64,
    step_ms: i64,
    /// Votes for grid point `i` are `diff[0] + … + diff[i]`; one entry more
    /// than the grid has points.
    diff: Vec<i64>,
    /// Samples observed, explained or not: the overlap denominator.
    samples: usize,
}

impl OffsetVotes {
    /// An empty vote over `[-half_range, +half_range]` in `step`
    /// increments. `None` for a step ≤ 0, a negative half-range, or a
    /// half-range too wide for grid arithmetic in `i64`.
    pub fn new(half_range: TimeDelta, step: TimeDelta) -> Option<Self> {
        let (half_range_ms, step_ms) = (half_range.as_millis(), step.as_millis());
        if step_ms <= 0 || half_range_ms < 0 {
            return None;
        }
        let points = usize::try_from(half_range_ms.checked_mul(2)? / step_ms + 1).ok()?;
        Some(Self {
            half_range_ms,
            step_ms,
            diff: vec![0; points + 1],
            samples: 0,
        })
    }

    /// Counts one sample captured at `at` and votes for every grid offset
    /// that moves it inside one of `intervals`. The intervals must be
    /// sorted and disjoint, so a sample votes at most once per offset; an
    /// empty slice counts the sample without a vote.
    pub fn observe(&mut self, at: Timestamp, intervals: &[Interval]) {
        self.samples += 1;
        let (t, h) = (at.as_millis(), self.half_range_ms);
        // Only intervals overlapping the window [t − H, t + H] can vote.
        let first = intervals.partition_point(|iv| iv.end.as_millis() <= t.saturating_sub(h));
        let reachable = intervals[first..]
            .iter()
            .take_while(|iv| iv.start.as_millis() <= t.saturating_add(h));
        for iv in reachable {
            // Relative to t and clipped to the grid's offsets [-H, H + 1).
            let lo = iv.start.as_millis().saturating_sub(t).max(-h);
            let hi = iv.end.as_millis().saturating_sub(t).min(h + 1);
            if lo < hi {
                let (from, to) = (self.grid_index(lo), self.grid_index(hi));
                self.diff[from] += 1;
                self.diff[to] -= 1;
            }
        }
    }

    /// The first grid index whose offset is at or after `rel`, for `rel`
    /// in `[-H, H + 1]`.
    fn grid_index(&self, rel: i64) -> usize {
        let from_start = (rel + self.half_range_ms) as u64;
        from_start.div_ceil(self.step_ms as u64) as usize
    }

    /// Adds the votes of another chunk of samples over the same grid.
    pub fn merge(&mut self, other: &OffsetVotes) {
        assert_eq!(
            (self.half_range_ms, self.step_ms),
            (other.half_range_ms, other.step_ms),
            "merged offset votes must share a grid"
        );
        for (d, o) in self.diff.iter_mut().zip(&other.diff) {
            *d += o;
        }
        self.samples += other.samples;
    }

    /// Samples observed so far, explained or not.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The likelihood curve (each grid offset's votes ÷ samples observed)
    /// and its argmax. `None` until a sample has been observed.
    pub fn scan(&self) -> Option<OffsetScan> {
        if self.samples == 0 {
            return None;
        }
        let mut votes = 0i64;
        let curve: Vec<OffsetPoint> = self.diff[..self.diff.len() - 1]
            .iter()
            .enumerate()
            .map(|(i, d)| {
                votes += d;
                OffsetPoint {
                    offset: TimeDelta::millis(-self.half_range_ms + i as i64 * self.step_ms),
                    overlap: votes as f64 / self.samples as f64,
                }
            })
            .collect();
        // Ties break towards the smallest |offset|: recorders are NTP-synced,
        // so near-zero skew is the sensible prior on a flat plateau.
        let best = *curve.iter().max_by(|a, b| {
            a.overlap
                .partial_cmp(&b.overlap)
                .expect("overlap is finite")
                .then(b.offset.abs().as_millis().cmp(&a.offset.abs().as_millis()))
        })?;
        Some(OffsetScan { curve, best })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start_ms: i64, end_ms: i64) -> Interval {
        Interval::new(
            Timestamp::from_millis(start_ms),
            Timestamp::from_millis(end_ms),
        )
    }

    fn scan_of(samples: &[(i64, &[Interval])], half_range: i64, step: i64) -> OffsetScan {
        let mut votes = OffsetVotes::new(TimeDelta::millis(half_range), TimeDelta::millis(step))
            .expect("valid grid");
        for &(at, intervals) in samples {
            votes.observe(Timestamp::from_millis(at), intervals);
        }
        votes.scan().expect("samples observed")
    }

    #[test]
    fn invalid_grids_and_empty_votes_give_none() {
        let second = TimeDelta::seconds(1);
        assert!(OffsetVotes::new(second, TimeDelta::ZERO).is_none());
        assert!(OffsetVotes::new(second, TimeDelta::millis(-10)).is_none());
        assert!(OffsetVotes::new(TimeDelta::millis(-1), TimeDelta::millis(10)).is_none());
        assert!(OffsetVotes::new(TimeDelta::millis(i64::MAX), second).is_none());
        let votes = OffsetVotes::new(second, TimeDelta::millis(10)).unwrap();
        assert!(votes.scan().is_none());
    }

    #[test]
    fn recovers_injected_offset() {
        // Ground truth: blackhole active [1000, 2000) and [5000, 9000).
        // Data plane clock runs 40 ms fast (samples stamped 40 ms early), so
        // shifting samples by +40 ms must maximise the overlap.
        let intervals = [iv(1000, 2000), iv(5000, 9000)];
        let true_offset = -40i64;
        let samples: Vec<(i64, &[Interval])> = (0..50)
            .map(|i| 1000 + i * 20) // true capture in [1000, 2000)
            .chain((0..200).map(|i| 5000 + i * 20)) // true capture in [5000, 9000)
            .chain([1999, 8999]) // edge samples pin the offset uniquely
            .map(|t| (t + true_offset, &intervals[..]))
            .collect();
        let scan = scan_of(&samples, 200, 10);
        assert_eq!(scan.best.offset, TimeDelta::millis(40));
        assert!(scan.best.overlap > 0.99);
    }

    #[test]
    fn curve_covers_symmetric_grid() {
        let scan = scan_of(&[(500, &[iv(0, 1000)])], 30, 10);
        let offsets: Vec<i64> = scan.curve.iter().map(|p| p.offset.as_millis()).collect();
        assert_eq!(offsets, vec![-30, -20, -10, 0, 10, 20, 30]);
    }

    #[test]
    fn unexplainable_samples_cap_overlap() {
        let scan = scan_of(&[(50, &[iv(0, 100)]), (50, &[])], 0, 1);
        assert_eq!(scan.best.overlap, 0.5);
    }

    #[test]
    fn votes_respect_half_open_bounds() {
        let intervals = [iv(100, 200)];
        for (t, inside) in [(99, false), (100, true), (199, true), (200, false)] {
            let scan = scan_of(&[(t, &intervals)], 0, 1);
            assert_eq!(scan.best.overlap > 0.5, inside, "t={t}");
        }
    }
}
