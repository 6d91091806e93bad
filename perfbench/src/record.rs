//! Summaries, the percentile rule and the result record.
//!
//! Every metric is a list of samples reduced to a [`Summary`]: sample
//! count, median and quartiles (Python's `statistics.quantiles(n=4)`
//! "exclusive" method, so a reader can recompute them), plus a tail
//! percentile only when at least [`TAIL_MIN_BEYOND`] samples lie beyond
//! it.

use std::fmt::Write as _;

use rtbh_json::Json;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// True iff `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Quantile of sorted samples by the "exclusive" method (Python's
/// default): position `p * (n + 1)`, linear interpolation between the
/// neighbouring order statistics, clamped to the sample range.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n + 1) as f64;
    if pos <= 1.0 {
        return sorted[0];
    }
    if pos >= n as f64 {
        return sorted[n - 1];
    }
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// The `p`-quantile of sorted samples, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    let beyond = (sorted.len() as f64 * (1.0 - p)).floor() as usize;
    (beyond >= TAIL_MIN_BEYOND).then(|| quantile(sorted, p))
}

/// Sample count, median, quartiles and (when the sample supports it) p99.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// 99th percentile, when at least ten samples lie beyond it.
    pub p99: Option<f64>,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` for an empty list.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            p99: tail(&sorted, 0.99),
        })
    }
}

/// One named metric: its unit, samples and reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit (`s`, `ms`, `us`, `1/s`, `MB`, `count`, `ratio`, `bytes`).
    pub unit: &'static str,
    /// The samples behind the value (one per repetition).
    pub samples: Vec<f64>,
    /// The reported value: the median of the samples, or an explicit
    /// value for metrics that are not a median (a p99, a count).
    pub value: f64,
}

/// The metrics a run reports, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    list: Vec<Metric>,
}

impl Metrics {
    /// Adds a metric whose value is the median of `samples`. An empty
    /// sample list reports 0.
    pub fn median(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        let value = Summary::of(&samples).map_or(0.0, |s| s.median);
        self.push(Metric {
            name: name.to_string(),
            unit,
            samples,
            value,
        });
    }

    /// Adds a metric with one value (a count, a ratio, a single timing).
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(Metric {
            name: name.to_string(),
            unit,
            samples: vec![value],
            value,
        });
    }

    fn push(&mut self, metric: Metric) {
        assert!(
            valid_name(&metric.name),
            "bad metric name {:?}",
            metric.name
        );
        assert!(
            self.get(&metric.name).is_none(),
            "metric {} reported twice",
            metric.name
        );
        self.list.push(metric);
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.list.iter().find(|m| m.name == name)
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.list.iter()
    }

    /// Merges another metric set into this one.
    pub fn extend(&mut self, other: Metrics) {
        for m in other.list {
            self.push(m);
        }
    }
}

/// Operations attempted and failed, with the failure messages.
///
/// Checks of a known product defect are kept apart: they are counted and
/// reported with the product's message, but stay out of `attempted` and
/// `failed`, which cover the workload's own operations.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// One line per distinct failure message, with its count.
    pub messages: Vec<(String, u64)>,
    /// Checks of a known defect made.
    pub defect_checks: u64,
    /// Known-defect failures per distinct message.
    pub defects: Vec<(String, u64)>,
}

fn count(list: &mut Vec<(String, u64)>, message: String, n: u64) {
    match list.iter_mut().find(|(m, _)| *m == message) {
        Some((_, c)) => *c += n,
        None => list.push((message, n)),
    }
}

impl Outcome {
    /// Records one operation; `Err(message)` counts it as failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.fail(message);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        count(&mut self.messages, message, 1);
    }

    /// Records one check of a known product defect.
    pub fn record_defect(&mut self, result: Result<(), String>) {
        self.defect_checks += 1;
        if let Err(message) = result {
            count(&mut self.defects, message, 1);
        }
    }

    /// Known-defect failures recorded.
    pub fn defect_failures(&self) -> u64 {
        self.defects.iter().map(|(_, n)| n).sum()
    }

    /// Adds another outcome's operations and failures to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.defect_checks += other.defect_checks;
        for (message, n) in other.messages {
            count(&mut self.messages, message, n);
        }
        for (message, n) in other.defects {
            count(&mut self.defects, message, n);
        }
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Formats a number for the result line: integers without a fraction,
/// everything else with every digit Rust's shortest round-trip form
/// gives.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The record's last line: `correct`, `attempted`, `failed` and the
/// chosen metrics with their units.
pub fn result_line(outcome: &Outcome, metrics: &Metrics, names: &[&str]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, name) in names.iter().enumerate() {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number, `null` when not finite.
pub fn json_num(x: f64) -> Json {
    if x.is_finite() {
        Json::F64(x)
    } else {
        Json::Null
    }
}

/// One metric as a record entry: unit, value, sample count, median,
/// quartiles and p99 (when the sample supports it).
pub fn metric_json(m: &Metric) -> Json {
    let mut fields = vec![
        ("unit".to_string(), Json::Str(m.unit.to_string())),
        ("value".to_string(), json_num(m.value)),
        ("n".to_string(), Json::U64(m.samples.len() as u64)),
    ];
    if let Some(s) = Summary::of(&m.samples) {
        fields.push(("median".to_string(), json_num(s.median)));
        fields.push(("q1".to_string(), json_num(s.q1)));
        fields.push(("q3".to_string(), json_num(s.q3)));
        fields.push(("p99".to_string(), s.p99.map_or(Json::Null, json_num)));
    }
    Json::Obj(fields)
}

/// Every metric of a set as one JSON object keyed by name.
pub fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.clone(), metric_json(m)))
            .collect(),
    )
}

fn messages_json(list: &[(String, u64)]) -> Json {
    Json::Arr(
        list.iter()
            .map(|(m, n)| {
                Json::Obj(vec![
                    ("message".to_string(), Json::Str(m.clone())),
                    ("count".to_string(), Json::U64(*n)),
                ])
            })
            .collect(),
    )
}

/// The outcome as a record entry.
pub fn outcome_json(outcome: &Outcome) -> Json {
    Json::Obj(vec![
        ("attempted".to_string(), Json::U64(outcome.attempted)),
        ("failed".to_string(), Json::U64(outcome.failed)),
        ("failed_share".to_string(), json_num(outcome.failed_share())),
        ("failures".to_string(), messages_json(&outcome.messages)),
        (
            "known_defect_checks".to_string(),
            Json::U64(outcome.defect_checks),
        ),
        (
            "known_defect_failed".to_string(),
            Json::U64(outcome.defect_failures()),
        ),
        (
            "known_defect_failures".to_string(),
            messages_json(&outcome.defects),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_grammar() {
        for good in [
            "setup_s",
            "serve.report.hit_ratio",
            "align.speedup_2w",
            "p99-ms",
            "9lives",
        ] {
            assert!(valid_name(good), "{good} should be valid");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "x%", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn every_metric_this_benchmark_declares_is_well_named() {
        let declared = include_str!("../../BENCHMARK.json");
        let doc: Json = rtbh_json::from_str(declared).expect("BENCHMARK.json parses");
        let mut names = Vec::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for entry in doc.field(key).expect_arr(key).expect("array") {
                let name = entry.field("name").as_str().expect("name").to_string();
                assert!(valid_name(&name), "{key}: bad name {name:?}");
                assert!(!names.contains(&name), "{name} declared twice");
                names.push(name);
            }
        }
        assert!(names.iter().any(|n| n == "setup_s"));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[4.0]).unwrap().median, 4.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(Summary::of(&xs).unwrap().p99, None, "9 beyond: no p99");
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = Summary::of(&xs).unwrap().p99.expect("10 beyond: p99");
        assert!((989.0..=990.0).contains(&p99), "p99 = {p99}");
        assert_eq!(tail(&xs, 0.5), Some(quantile(&xs, 0.5)));
        assert_eq!(tail(&xs[..19], 0.5), None, "9 beyond the median");
    }

    #[test]
    fn result_line_has_exactly_the_declared_keys() {
        let mut metrics = Metrics::default();
        metrics.median("setup_s", "s", vec![0.25, 0.5, 0.75]);
        metrics.value("peak_rss_mb", "MB", 12.5);
        let mut outcome = Outcome::default();
        outcome.record(Ok(()));
        outcome.record(Err("decode: truncated".into()));
        let line = result_line(&outcome, &metrics, &["setup_s", "peak_rss_mb"]);
        let doc: Json = rtbh_json::from_str(&line).expect("result line parses");
        let keys: Vec<&str> = doc
            .expect_obj("line")
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.matches("\"value\"").count(), 2);
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
