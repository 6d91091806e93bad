//! Differential fuzz: the difference-array clock-offset estimator
//! (`rtbh_stats::OffsetVotes`) against the grid scan it replaced, which
//! lives on only here as the oracle — every grid offset re-tests every
//! sample with a partition-point lookup in its sorted interval list.
//!
//! Interval lists are sorted and disjoint, as the RIB reconstruction and
//! the stream produce them: adjacent `[a, b), [b, c)` pairs, empty lists,
//! intervals wider than the whole grid, a last interval open to
//! `i64::MAX`. Samples sit on the places an off-by-one would show: an
//! interval bound `± H`, the exact instants where a grid step crosses a
//! bound, and their ±1 ms neighbours. Grids cover `H ∈ [0, 3 s]`,
//! `S ∈ [1, 60] ms`, steps that do not divide `H`, steps wider than the
//! grid, and grids symmetric about a skipped zero, where the curve's
//! plateaus tie at ±x.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_net::{Interval, TimeDelta, Timestamp};
use rtbh_rng::{ChaChaRng, Rng};
use rtbh_stats::offset::{OffsetPoint, OffsetScan, OffsetVotes};
use rtbh_testkit::FuzzTarget;

/// A dropped sample: capture time (ms) and the index of its interval list.
type Sample = (i64, usize);

/// The oracle's membership test: is the shifted sample inside the last
/// interval starting at or before it?
fn explained_with(at: i64, intervals: &[Interval], offset: TimeDelta) -> bool {
    let t = Timestamp::from_millis(at) + offset;
    let idx = intervals.partition_point(|iv| iv.start <= t);
    idx > 0 && intervals[idx - 1].contains(t)
}

/// The grid scan: each grid offset's share of explained samples, and the
/// argmax (highest overlap, then smallest |offset|, then the later point).
fn grid_scan(
    samples: &[Sample],
    lists: &[Vec<Interval>],
    half_range: TimeDelta,
    step: TimeDelta,
) -> Option<OffsetScan> {
    if samples.is_empty() || step.as_millis() <= 0 || half_range.as_millis() < 0 {
        return None;
    }
    let mut curve = Vec::new();
    let mut offset = TimeDelta::millis(-half_range.as_millis());
    while offset.as_millis() <= half_range.as_millis() {
        let explained = samples
            .iter()
            .filter(|&&(at, list)| explained_with(at, &lists[list], offset))
            .count();
        curve.push(OffsetPoint {
            offset,
            overlap: explained as f64 / samples.len() as f64,
        });
        offset += step;
    }
    let best = *curve.iter().max_by(|a, b| {
        a.overlap
            .partial_cmp(&b.overlap)
            .expect("overlap is finite")
            .then(b.offset.abs().as_millis().cmp(&a.offset.abs().as_millis()))
    })?;
    Some(OffsetScan { curve, best })
}

fn votes_of(samples: &[Sample], lists: &[Vec<Interval>], h: i64, s: i64) -> OffsetVotes {
    let mut votes = OffsetVotes::new(TimeDelta::millis(h), TimeDelta::millis(s)).expect("grid");
    for &(at, list) in samples {
        votes.observe(Timestamp::from_millis(at), &lists[list]);
    }
    votes
}

fn iv(start: i64, end: i64) -> Interval {
    Interval::new(Timestamp::from_millis(start), Timestamp::from_millis(end))
}

/// A grid `(H, S)` in ms, one of four shapes.
fn arb_grid(rng: &mut ChaChaRng) -> (i64, i64) {
    match rng.gen_range(0..4u32) {
        0 => (rng.gen_range(0..=3000i64), rng.gen_range(1..=60i64)),
        // S does not divide H.
        1 => {
            let s = rng.gen_range(2..=60i64);
            let h = s * rng.gen_range(0..=3000 / s - 1) + rng.gen_range(1..s);
            (h, s)
        }
        // S > 2H: the grid is the single point -H.
        2 => {
            let h = rng.gen_range(0..=29i64);
            (h, rng.gen_range(2 * h + 1..=60))
        }
        // Symmetric about zero but skipping it: 2H = (2k + 1)·S.
        _ => {
            let m = rng.gen_range(1..=30i64);
            let h = m * (2 * rng.gen_range(0..=(3000 / m - 1) / 2) + 1);
            (h, 2 * m)
        }
    }
}

/// A sorted, disjoint interval list near `anchor`.
fn arb_intervals(rng: &mut ChaChaRng, anchor: i64, h: i64, s: i64) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut at = anchor - rng.gen_range(0..=4 * h + 200);
    for i in 0..rng.gen_range(0..=5usize) {
        if i > 0 {
            at += match rng.gen_range(0..4u32) {
                0 => 0, // adjacent to the previous interval
                1 => rng.gen_range(1..=s),
                2 => rng.gen_range(1..=2 * h + s),
                _ => rng.gen_range(1..=100_000i64),
            };
        }
        let len = match rng.gen_range(0..5u32) {
            0 => rng.gen_range(0..=s),
            1 => rng.gen_range(1..=2 * h + 2),
            2 => 2 * h + rng.gen_range(1..=100_000i64), // wider than the grid
            _ => rng.gen_range(1..=10_000i64),
        };
        out.push(iv(at, at + len));
        at += len;
    }
    if let Some(last) = out.last_mut().filter(|_| rng.gen_ratio(1, 4)) {
        last.end = Timestamp::from_millis(i64::MAX);
    }
    out
}

/// A capture time that probes `intervals` where an off-by-one would show.
fn arb_probe(rng: &mut ChaChaRng, intervals: &[Interval], anchor: i64, h: i64, s: i64) -> i64 {
    if intervals.is_empty() {
        return anchor + rng.gen_range(-100_000..=100_000i64);
    }
    let target = intervals[rng.gen_range(0..intervals.len())];
    let jitter = rng.gen_range(-1..=1i64);
    let bound = if target.end.as_millis() == i64::MAX || rng.gen_bool(0.5) {
        target.start.as_millis()
    } else {
        target.end.as_millis()
    };
    match rng.gen_range(0..3u32) {
        // An interval bound at the edge of the window.
        0 => bound + jitter + if rng.gen_bool(0.5) { h } else { -h },
        // The instant grid point i moves the sample onto the bound.
        1 => bound + h - rng.gen_range(0..=2 * h / s) * s + jitter,
        _ => bound + rng.gen_range(-2 * h - 1000..=2 * h + 1000),
    }
}

/// Splits `0..n` at `chunks - 1` random cut points (chunks may be empty).
fn arb_cuts(rng: &mut ChaChaRng, n: usize, chunks: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (1..chunks).map(|_| rng.gen_range(0..=n)).collect();
    cuts.push(0);
    cuts.push(n);
    cuts.sort_unstable();
    cuts
}

#[test]
fn votes_match_the_grid_scan_and_merge_exactly() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "offset_diff",
        test_name: "votes_match_the_grid_scan_and_merge_exactly",
        base_seed: seeds::FUZZ_OFFSET_DIFF,
    };
    target.run(400, |_, rng| {
        let (h, s) = arb_grid(rng);
        let anchor = rng.gen_range(-1_000_000_000..=1_000_000_000i64);
        // List 0 is always empty: samples with no covering blackhole.
        let mut lists = vec![Vec::new()];
        let mut samples: Vec<Sample> = Vec::new();
        if rng.gen_ratio(1, 4) {
            // Symmetric plateaus: each sample votes for [-b, -a] ∪ [a, b].
            for _ in 0..rng.gen_range(0..=24usize) {
                let at = anchor + rng.gen_range(-10_000..=10_000i64);
                let a = rng.gen_range(0..=h);
                let b = rng.gen_range(a..=h + 2 * s);
                lists.push(if a == 0 {
                    vec![iv(at - b, at + b + 1)]
                } else {
                    vec![iv(at - b, at - a + 1), iv(at + a, at + b + 1)]
                });
                samples.push((at, lists.len() - 1));
            }
        } else {
            for _ in 0..rng.gen_range(1..=4usize) {
                let list = arb_intervals(rng, anchor, h, s);
                lists.push(list);
            }
            for _ in 0..rng.gen_range(0..=40usize) {
                let list = rng.gen_range(0..lists.len());
                let at = arb_probe(rng, &lists[list], anchor, h, s);
                samples.push((at, list));
            }
        }

        let expected = grid_scan(&samples, &lists, TimeDelta::millis(h), TimeDelta::millis(s));
        let one_pass = votes_of(&samples, &lists, h, s);
        let scan = one_pass.scan();
        assert_eq!(scan, expected, "H={h} S={s}");
        if let (Some(scan), Some(expected)) = (&scan, &expected) {
            assert_eq!(
                rtbh_json::to_vec_pretty(scan),
                rtbh_json::to_vec_pretty(expected)
            );
        }
        assert_eq!(one_pass.samples(), samples.len());

        for chunks in [1, 2, 7] {
            let cuts = arb_cuts(rng, samples.len(), chunks);
            let mut merged = votes_of(&[], &lists, h, s);
            for w in cuts.windows(2) {
                merged.merge(&votes_of(&samples[w[0]..w[1]], &lists, h, s));
            }
            assert_eq!(merged, one_pass, "{chunks} chunks, H={h} S={s}");
        }
    });
}
