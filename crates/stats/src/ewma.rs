//! The EWMA traffic-anomaly detector of paper §5.3.
//!
//! The paper slides a 24-hour window (288 five-minute slots) over each
//! traffic feature. Within the window the most recent value carries the
//! highest weight, following the pandas exponentially-weighted convention the
//! authors cite:
//!
//! ```text
//! α   = 2 / (s + 1),            s = 288
//! w_i = (1 − α)^i,              i = 0 (newest) .. s−1 (oldest)
//! y_t = Σ w_i · x_{t−i} / Σ w_i
//! ```
//!
//! A value is **anomalous** when it exceeds the weighted moving average of
//! the *preceding* window by `k` weighted standard deviations (k = 2.5 in the
//! paper; §5.3 notes results are stable even at k = 10). Detection requires a
//! full window: the first `s` values can never be flagged, exactly as "no
//! anomaly can be found during the first 24 hours".

/// Configuration of an EWMA detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaConfig {
    /// Window length in slots (`s`). The paper uses 288 (24 h of 5-min slots).
    pub span: usize,
    /// Anomaly threshold in weighted standard deviations above the mean.
    pub threshold_sd: f64,
}

rtbh_json::impl_json! { struct EwmaConfig { span, threshold_sd } }

impl EwmaConfig {
    /// The paper's configuration: 288-slot window, 2.5·SD threshold.
    pub const PAPER: Self = Self {
        span: 288,
        threshold_sd: 2.5,
    };

    /// The decay parameter `α = 2/(s+1)`.
    pub fn alpha(&self) -> f64 {
        2.0 / (self.span as f64 + 1.0)
    }
}

impl Default for EwmaConfig {
    fn default() -> Self {
        Self::PAPER
    }
}

/// The verdict for one pushed value once the window is full.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaVerdict {
    /// The pushed value under test.
    pub value: f64,
    /// Weighted moving average of the preceding window.
    pub mean: f64,
    /// Weighted standard deviation of the preceding window.
    pub sd: f64,
    /// True if `value > mean + threshold_sd · sd`.
    pub is_anomaly: bool,
}

rtbh_json::impl_json! { struct EwmaVerdict { value, mean, sd, is_anomaly } }

impl EwmaVerdict {
    /// How many SDs the value sits above the mean (0 when SD is zero and the
    /// value equals the mean; +∞-clamped to `f64::MAX` when SD is zero and
    /// the value exceeds the mean).
    pub fn score(&self) -> f64 {
        if self.sd > 0.0 {
            (self.value - self.mean) / self.sd
        } else if self.value > self.mean {
            f64::MAX
        } else {
            0.0
        }
    }
}

/// A sliding-window EWMA anomaly detector for one traffic feature.
///
/// Push one value per time slot; `None` is returned while the window is still
/// warming up (the paper's "full window" requirement).
///
/// ```
/// use rtbh_stats::{EwmaConfig, EwmaDetector};
///
/// let mut det = EwmaDetector::new(EwmaConfig { span: 4, threshold_sd: 2.5 });
/// for _ in 0..4 {
///     assert!(det.push(10.0).is_none()); // warming up
/// }
/// let calm = det.push(10.0).unwrap();
/// assert!(!calm.is_anomaly);
/// let spike = det.push(1000.0).unwrap();
/// assert!(spike.is_anomaly);
/// ```
#[derive(Debug, Clone)]
pub struct EwmaDetector {
    config: EwmaConfig,
    /// Ring buffer of the last `span` values; `head` points at the slot the
    /// next value will overwrite (the oldest value once warm).
    window: Vec<f64>,
    head: usize,
    filled: usize,
    /// `β = 1 − α`.
    beta: f64,
    /// `β^span` — the weight an evicted value would carry.
    beta_span: f64,
    /// Σ β^i for i in 0..span.
    weight_sum: f64,
    /// Incremental Σ β^i · x_{t−i} over the window.
    sum: f64,
    /// Incremental Σ β^i · x_{t−i}² over the window.
    sum_sq: f64,
}

impl EwmaDetector {
    /// Creates a detector with the given configuration.
    ///
    /// # Panics
    /// Panics if `span == 0`.
    pub fn new(config: EwmaConfig) -> Self {
        assert!(config.span > 0, "EWMA span must be positive");
        let beta = 1.0 - config.alpha();
        let beta_span = beta.powi(config.span as i32);
        // Geometric sum Σ_{i<span} β^i = (1 − β^span) / (1 − β).
        let weight_sum = (1.0 - beta_span) / (1.0 - beta);
        Self {
            config,
            window: vec![0.0; config.span],
            head: 0,
            filled: 0,
            beta,
            beta_span,
            weight_sum,
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &EwmaConfig {
        &self.config
    }

    /// True once a full window of history has been observed.
    pub fn is_warm(&self) -> bool {
        self.filled == self.config.span
    }

    /// Weighted moving average and SD over the current window contents
    /// (newest value gets weight `β^0`). `None` until warm.
    ///
    /// Maintained incrementally in O(1) per push: the weighted variance uses
    /// the identity `Σwᵢ(xᵢ−μ)²/W = Σwᵢxᵢ²/W − μ²`.
    pub fn stats(&self) -> Option<(f64, f64)> {
        if !self.is_warm() {
            return None;
        }
        let mean = self.sum / self.weight_sum;
        let var = (self.sum_sq / self.weight_sum - mean * mean).max(0.0);
        Some((mean, var.sqrt()))
    }

    /// Pushes the next slot value; returns a verdict once the *preceding*
    /// window is full.
    ///
    /// The value under test is compared against the statistics of the window
    /// *before* it is admitted, so a spike cannot suppress its own detection.
    pub fn push(&mut self, value: f64) -> Option<EwmaVerdict> {
        let verdict = self.stats().map(|(mean, sd)| {
            // Relative epsilon guards against floating-point residue in the
            // incremental sums flagging a perfectly flat series.
            let guard = 1e-9 * (1.0 + mean.abs());
            EwmaVerdict {
                value,
                mean,
                sd,
                is_anomaly: value > mean + self.config.threshold_sd * sd + guard,
            }
        });
        self.update(value);
        verdict
    }

    /// Admits the next slot value without judging it: the second half of
    /// [`EwmaDetector::push`], which leaves the detector in the same state
    /// `push` would. For callers that already know the verdict cannot
    /// matter (a value below their reporting floor), it skips the mean,
    /// the SD and the square root.
    pub fn update(&mut self, value: f64) {
        // Decay all existing weights by β, evict the oldest if warm, admit
        // the new value at weight β^0 = 1.
        let evicted = if self.is_warm() {
            self.window[self.head]
        } else {
            0.0
        };
        self.sum = self.beta * self.sum + value - self.beta_span * evicted;
        self.sum_sq = self.beta * self.sum_sq + value * value - self.beta_span * evicted * evicted;
        self.window[self.head] = value;
        self.head += 1;
        if self.head == self.config.span {
            self.head = 0;
        }
        if self.filled < self.config.span {
            self.filled += 1;
        }
    }

    /// Resets the window without changing the configuration.
    pub fn reset(&mut self) {
        self.reset_to_zeros(0);
    }

    /// Resets the window to the state a fresh detector reaches after
    /// `zeros` pushes of `0.0`: every pushed zero keeps both sums at
    /// exactly `0.0`, so only the ring position and the warm-up count move.
    pub fn reset_to_zeros(&mut self, zeros: usize) {
        self.head = zeros % self.config.span;
        self.filled = zeros.min(self.config.span);
        self.sum = 0.0;
        self.sum_sq = 0.0;
        self.window.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Runs a detector over a whole series and returns one `Option<EwmaVerdict>`
/// per input (warm-up slots give `None`).
pub fn detect_series(config: EwmaConfig, series: &[f64]) -> Vec<Option<EwmaVerdict>> {
    let mut det = EwmaDetector::new(config);
    series.iter().map(|&v| det.push(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(span: usize) -> EwmaConfig {
        EwmaConfig {
            span,
            threshold_sd: 2.5,
        }
    }

    #[test]
    fn paper_alpha() {
        assert!((EwmaConfig::PAPER.alpha() - 2.0 / 289.0).abs() < 1e-12);
    }

    #[test]
    fn warm_up_returns_none_for_exactly_span_values() {
        let mut det = EwmaDetector::new(cfg(5));
        for i in 0..5 {
            assert!(det.push(i as f64).is_none(), "push {i} should be warm-up");
        }
        assert!(det.push(2.0).is_some());
    }

    #[test]
    fn constant_series_is_never_anomalous() {
        let verdicts = detect_series(cfg(8), &[7.0; 50]);
        for v in verdicts.into_iter().flatten() {
            assert!(!v.is_anomaly);
            assert!((v.mean - 7.0).abs() < 1e-9);
            // The incremental variance leaves O(1e-7) fp residue on a
            // perfectly flat series; the anomaly guard absorbs it.
            assert!(v.sd.abs() < 1e-5);
        }
    }

    #[test]
    fn spike_is_flagged_and_uses_preceding_window() {
        let mut series = vec![10.0; 20];
        series.push(500.0);
        let verdicts = detect_series(cfg(8), &series);
        let spike = verdicts.last().unwrap().unwrap();
        assert!(spike.is_anomaly);
        // Preceding window was all 10s: mean 10, sd ~0 (up to fp residue),
        // so the score is astronomically large.
        assert!((spike.mean - 10.0).abs() < 1e-9);
        assert!(spike.score() > 1e6);
    }

    #[test]
    fn noisy_but_stationary_series_rarely_flags() {
        // Deterministic pseudo-noise in [9, 11].
        let series: Vec<f64> = (0..600)
            .map(|i| 10.0 + ((i * 37 % 21) as f64 - 10.0) / 10.0)
            .collect();
        let verdicts = detect_series(EwmaConfig::PAPER, &series);
        let anomalies = verdicts.iter().flatten().filter(|v| v.is_anomaly).count();
        assert_eq!(
            anomalies, 0,
            "stationary bounded noise must not trip 2.5 SD"
        );
    }

    #[test]
    fn recent_values_weigh_more() {
        // Window [old.., new]: step change half-way through.
        let mut det = EwmaDetector::new(cfg(10));
        for _ in 0..5 {
            det.push(0.0);
        }
        for _ in 0..5 {
            det.push(100.0);
        }
        let (mean, _) = det.stats().unwrap();
        assert!(mean > 50.0, "newer 100s must outweigh older 0s, got {mean}");
    }

    #[test]
    fn incremental_stats_match_naive_weighted_formula() {
        // Cross-check the O(1) incremental mean/SD against a direct
        // evaluation of y_t = Σ wᵢ·x_{t−i} / Σ wᵢ with wᵢ = (1−α)^i.
        let span = 6;
        let alpha: f64 = 2.0 / (span as f64 + 1.0);
        let series: Vec<f64> = (0..40)
            .map(|i| ((i * 13 % 7) as f64) + 0.25 * i as f64)
            .collect();
        let mut det = EwmaDetector::new(cfg(span));
        for (t, &x) in series.iter().enumerate() {
            det.push(x);
            if t + 1 < span {
                assert!(det.stats().is_none());
                continue;
            }
            let weights: Vec<f64> = (0..span).map(|i| (1.0 - alpha).powi(i as i32)).collect();
            let wsum: f64 = weights.iter().sum();
            let mean_naive: f64 = (0..span).map(|i| weights[i] * series[t - i]).sum::<f64>() / wsum;
            let var_naive: f64 = (0..span)
                .map(|i| weights[i] * (series[t - i] - mean_naive).powi(2))
                .sum::<f64>()
                / wsum;
            let (mean, sd) = det.stats().unwrap();
            assert!(
                (mean - mean_naive).abs() < 1e-9,
                "t={t}: {mean} vs {mean_naive}"
            );
            assert!((sd - var_naive.sqrt()).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn reset_requires_rewarming() {
        let mut det = EwmaDetector::new(cfg(3));
        for _ in 0..4 {
            det.push(1.0);
        }
        assert!(det.is_warm());
        det.reset();
        assert!(!det.is_warm());
        assert!(det.push(1.0).is_none());
    }

    #[test]
    fn higher_threshold_flags_less() {
        let mut series = vec![10.0; 30];
        // Mild bump: ~4 SD above a window with some variance.
        for (i, x) in series.iter_mut().enumerate() {
            *x += ((i % 3) as f64) - 1.0;
        }
        series.push(16.0);
        let loose = detect_series(
            EwmaConfig {
                span: 16,
                threshold_sd: 2.5,
            },
            &series,
        );
        let strict = detect_series(
            EwmaConfig {
                span: 16,
                threshold_sd: 10.0,
            },
            &series,
        );
        let loose_hit = loose.last().unwrap().unwrap().is_anomaly;
        let strict_hit = strict.last().unwrap().unwrap().is_anomaly;
        assert!(loose_hit);
        assert!(!strict_hit);
    }

    #[test]
    fn update_leaves_the_state_push_leaves() {
        // Any mix of values, including spikes, zeros and negatives, through
        // every warm-up length: the two detectors must agree bit for bit.
        let series: Vec<f64> = (0..200)
            .map(|i| match i % 7 {
                0 => 0.0,
                1 => 1e6,
                2 => -3.25,
                _ => ((i * 37 % 23) as f64) / 3.0,
            })
            .collect();
        for span in [1, 2, 5, 16] {
            let mut pushed = EwmaDetector::new(cfg(span));
            let mut updated = EwmaDetector::new(cfg(span));
            for (i, &x) in series.iter().enumerate() {
                pushed.push(x);
                if i % 3 == 0 {
                    updated.push(x);
                } else {
                    updated.update(x);
                }
                assert_eq!(pushed.head, updated.head);
                assert_eq!(pushed.filled, updated.filled);
                assert_eq!(
                    pushed.sum.to_bits(),
                    updated.sum.to_bits(),
                    "span {span} i {i}"
                );
                assert_eq!(pushed.sum_sq.to_bits(), updated.sum_sq.to_bits());
                let bits =
                    |d: &EwmaDetector| d.window.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&pushed), bits(&updated));
            }
        }
    }

    #[test]
    #[should_panic(expected = "span must be positive")]
    fn zero_span_panics() {
        let _ = EwmaDetector::new(cfg(0));
    }
}
