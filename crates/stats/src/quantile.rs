//! Quantiles and empirical cumulative distribution functions.

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample using linear interpolation
/// between order statistics (R type-7, the default of most data tools —
/// matching the pandas toolchain the paper uses).
///
/// Returns `None` for an empty sample. The input need not be sorted.
///
/// ```
/// use rtbh_stats::quantile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5), Some(2.5));
/// assert_eq!(quantile(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile(sample: &[f64], q: f64) -> Option<f64> {
    if sample.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    Some(quantile_sorted(&sorted, q))
}

/// Like [`quantile`], but assumes `sorted` is already ascending and non-empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    quantile_sorted_by(sorted.len(), q, |i| sorted[i])
}

/// [`quantile_sorted`] over an ascending sample of `len` values that is
/// read through `at(i)` instead of being materialized — for example a
/// sample whose leading values are implicit zeros. Performs exactly
/// `quantile_sorted`'s arithmetic, so both return the same `f64`.
///
/// ```
/// use rtbh_stats::quantile::{quantile_sorted, quantile_sorted_by};
/// // Six values, the first four of them implicit zeros.
/// let tail = [0.25, 1.0];
/// let at = |i: usize| if i < 4 { 0.0 } else { tail[i - 4] };
/// let dense = [0.0, 0.0, 0.0, 0.0, 0.25, 1.0];
/// assert_eq!(quantile_sorted_by(6, 0.99, at), quantile_sorted(&dense, 0.99));
/// ```
pub fn quantile_sorted_by(len: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!(len > 0, "quantile of empty sample");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = pos - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// An empirical cumulative distribution function over an `f64` sample.
///
/// Used for every CDF figure in the paper (drop rates Fig. 6, filterable
/// shares Fig. 14, AS participation Fig. 15, collateral packets Fig. 18).
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

rtbh_json::impl_json! { struct Ecdf { sorted } }

impl Ecdf {
    /// Builds an ECDF; NaNs are rejected with a panic (they have no order).
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(sample.iter().all(|x| !x.is_nan()), "NaN in ECDF input");
        sample.sort_by(|a, b| a.partial_cmp(b).expect("checked non-NaN"));
        Self { sorted: sample }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the sample was empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`: the fraction of observations at or below `x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile of the sample (type-7), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| quantile_sorted(&self.sorted, q))
    }

    /// The median, `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The underlying sorted observations.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Samples the CDF curve at `n` evenly spaced probability levels,
    /// returning `(value, cumulative_fraction)` pairs — the series a plotted
    /// CDF figure consists of.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let q = if n == 1 {
                    1.0
                } else {
                    i as f64 / (n - 1) as f64
                };
                (quantile_sorted(&self.sorted, q), q)
            })
            .collect()
    }
}

impl FromIterator<f64> for Ecdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_single_value() {
        assert_eq!(quantile(&[42.0], 0.0), Some(42.0));
        assert_eq!(quantile(&[42.0], 0.5), Some(42.0));
        assert_eq!(quantile(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn quantile_interpolates_type7() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&xs, 0.25), Some(20.0));
        assert_eq!(quantile(&xs, 0.5), Some(30.0));
        assert_eq!(quantile(&xs, 0.1), Some(14.0)); // 0.4 between 10 and 20
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        let xs = [50.0, 10.0, 30.0, 20.0, 40.0];
        assert_eq!(quantile(&xs, 0.5), Some(30.0));
    }

    #[test]
    fn quantile_clamps_q() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -0.5), Some(1.0));
        assert_eq!(quantile(&xs, 2.0), Some(2.0));
    }

    #[test]
    fn ecdf_fractions() {
        let e: Ecdf = [1.0, 2.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(e.fraction_at_or_below(0.5), 0.0);
        assert_eq!(e.fraction_at_or_below(1.0), 0.25);
        assert_eq!(e.fraction_at_or_below(2.0), 0.75);
        assert_eq!(e.fraction_at_or_below(3.0), 1.0);
        assert_eq!(e.fraction_at_or_below(99.0), 1.0);
    }

    #[test]
    fn ecdf_quantiles_and_extremes() {
        let e: Ecdf = (1..=100).map(|i| i as f64).collect();
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(100.0));
        assert!((e.median().unwrap() - 50.5).abs() < 1e-9);
        assert!((e.quantile(0.25).unwrap() - 25.75).abs() < 1e-9);
    }

    #[test]
    fn ecdf_curve_is_monotone() {
        let e: Ecdf = [5.0, 1.0, 9.0, 3.0, 3.0, 7.0].into_iter().collect();
        let curve = e.curve(11);
        assert_eq!(curve.len(), 11);
        for pair in curve.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(curve.first().unwrap().0, 1.0);
        assert_eq!(curve.last().unwrap().0, 9.0);
    }

    #[test]
    fn ecdf_empty_is_safe() {
        let e = Ecdf::new(Vec::new());
        assert!(e.is_empty());
        assert_eq!(e.fraction_at_or_below(1.0), 0.0);
        assert_eq!(e.median(), None);
        assert!(e.curve(5).is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        let _ = Ecdf::new(vec![1.0, f64::NAN]);
    }
}
