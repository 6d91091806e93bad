//! Pre-RTBH traffic analysis (paper §5.2–5.3, Figs. 11–13, Table 2).
//!
//! For every inferred RTBH event, the 72 hours before the first announcement
//! (the *pre-RTBH event*) are aggregated into 5-minute slots of five traffic
//! features — packets, flows, unique source IPs, unique destination ports,
//! non-TCP flows — and scanned with the EWMA detector. The paper's headline:
//! only ~27% of events show an anomaly within 10 minutes of the
//! announcement; 46% show no sampled traffic at all.

use rtbh_net::{Protocol, TimeDelta, Timestamp};
use rtbh_stats::{EwmaConfig, EwmaDetector};

use crate::columns::ColumnarFlows;
use crate::events::RtbhEvent;
use crate::hosts::PortSet;
use crate::index::SampleIndex;

/// Number of traffic features examined.
pub const FEATURES: usize = 5;

/// Configuration of the pre-event analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreEventConfig {
    /// Slot length (paper: 5 minutes).
    pub slot: TimeDelta,
    /// Pre-window length (paper: 72 hours).
    pub pre_window: TimeDelta,
    /// The EWMA detector configuration.
    pub ewma: EwmaConfig,
    /// How close to the announcement an anomaly must be to count as the
    /// trigger (paper: 10 minutes).
    pub anomaly_horizon: TimeDelta,
    /// Absolute floor a slot value must reach to be flagged: at 1:10,000
    /// sampling a lone packet in an otherwise quiet window trivially exceeds
    /// 2.5·SD, but it is sampling noise, not a volumetric attack. The paper
    /// notes its detections are "very significant bursts" (stable even at
    /// 10·SD); a floor of a few samples encodes the same robustness.
    pub min_anomalous_value: f64,
}

impl PreEventConfig {
    /// The paper's configuration.
    pub const PAPER: Self = Self {
        slot: TimeDelta::minutes(5),
        pre_window: TimeDelta::hours(72),
        ewma: EwmaConfig::PAPER,
        anomaly_horizon: TimeDelta::minutes(10),
        min_anomalous_value: 4.0,
    };

    /// Slots in a pre-window.
    pub fn slot_count(&self) -> usize {
        (self.pre_window.as_millis() / self.slot.as_millis()).max(1) as usize
    }
}

impl Default for PreEventConfig {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Table 2 classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreClass {
    /// No sampled packet in the whole pre-window.
    NoData,
    /// Sampled data, but no anomaly within the horizon.
    DataNoAnomaly,
    /// Sampled data with an anomaly within the horizon before the event.
    DataAnomaly,
}

/// One anomalous slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyHit {
    /// Time from the slot start to the event's first announcement.
    pub before_start: TimeDelta,
    /// How many of the five features were anomalous (1..=5).
    pub level: u8,
}

/// The per-event result.
#[derive(Debug, Clone, PartialEq)]
pub struct PreEventResult {
    /// The event's id.
    pub event_id: usize,
    /// Slots (of the pre-window) containing at least one sample.
    pub slots_with_data: usize,
    /// Total sampled packets in the pre-window.
    pub packets: u64,
    /// Every anomalous slot, oldest first.
    pub anomalies: Vec<AnomalyHit>,
    /// Per feature: last-slot value / pre-window mean (Fig. 13's *anomaly
    /// amplification factor*); `None` when the mean is zero or the last
    /// slot is empty.
    pub amplification: [Option<f64>; FEATURES],
    /// True if the last slot holds the feature's maximum of the pre-window
    /// (any feature).
    pub last_slot_is_max: bool,
    /// The Table 2 class.
    pub class: PreClass,
}

impl PreEventResult {
    /// True if any anomaly lies within `horizon` of the announcement.
    pub fn anomaly_within(&self, horizon: TimeDelta) -> bool {
        self.anomalies.iter().any(|a| a.before_start <= horizon)
    }
}

/// One sample of a pre-event window, as the five features read it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowRow {
    pub(crate) at: i64,
    pub(crate) src_ip: u32,
    pub(crate) src_port: u16,
    pub(crate) dst_port: u16,
    pub(crate) protocol: u8,
}

impl WindowRow {
    fn of(cols: &ColumnarFlows, id: u32) -> Self {
        let i = id as usize;
        Self {
            at: cols.at(i).as_millis(),
            src_ip: cols.src_ip_raw(i),
            src_port: cols.src_port(i),
            dst_port: cols.dst_port(i),
            protocol: cols.protocol_raw(i),
        }
    }
}

/// The reusable buffers of [`window_result`]: one per stage call or stream
/// backfill, never one per event.
pub(crate) struct PreEventScratch {
    /// The window's rows packed as `(slot, source, source port, destination
    /// port, protocol)` in one `u128`, so one sort groups slots, sources and
    /// flow tuples.
    keys: Vec<u128>,
    /// The slots holding data, ascending, with their feature values.
    slots: Vec<(usize, [f64; FEATURES])>,
    dst_ports: PortSet,
    /// One detector per feature, built by the first window with data.
    detectors: Vec<EwmaDetector>,
}

impl PreEventScratch {
    pub(crate) fn new() -> Self {
        Self {
            keys: Vec::new(),
            slots: Vec::new(),
            dst_ports: PortSet::new(),
            detectors: Vec::new(),
        }
    }
}

/// Bit offsets of the packed row key, from the top: the slot takes the
/// high 56 bits.
const KEY_SLOT: u32 = 72;
const KEY_SRC: u32 = 40;

fn row_key(slot: usize, r: &WindowRow) -> u128 {
    ((slot as u128) << KEY_SLOT)
        | (u128::from(r.src_ip) << KEY_SRC)
        | (u128::from(r.src_port) << 24)
        | (u128::from(r.dst_port) << 8)
        | u128::from(r.protocol)
}

/// The pre-event kernel, shared by the batch stage and the stream's
/// anomaly backfill: the [`PreEventResult`] of the window
/// `[start - pre_window, start)` from that window's rows, in any order.
/// Rows outside the window's slots are skipped.
///
/// Every shortcut is exact against building the five per-slot series and
/// pushing each slot through five [`EwmaDetector`]s:
///
/// * distinct flows and sources come from one sort of packed rows, and
///   distinct destination ports from a port bitset per slot — no hashing;
/// * a window without rows is `NoData` at once: an all-zero series keeps
///   every detector's sums at exactly 0.0, so it can never raise an
///   anomaly;
/// * a slot value below `min_anomalous_value` can never count, so the
///   detector only admits it ([`EwmaDetector::update`]) instead of
///   judging it;
/// * the detectors start at the first slot with data, in the state the
///   zero slots before it leave them in ([`EwmaDetector::reset_to_zeros`]).
pub(crate) fn window_result(
    event_id: usize,
    start: Timestamp,
    rows: impl IntoIterator<Item = WindowRow>,
    config: &PreEventConfig,
    scratch: &mut PreEventScratch,
) -> PreEventResult {
    let window_start = start - config.pre_window;
    let slot_ms = config.slot.as_millis();
    let slot_count = config.slot_count();
    let keys = &mut scratch.keys;
    keys.clear();
    for r in rows {
        let offset = r.at - window_start.as_millis();
        if offset < 0 {
            continue;
        }
        let idx = (offset / slot_ms) as usize;
        if idx < slot_count {
            keys.push(row_key(idx, &r));
        }
    }
    if keys.is_empty() {
        return PreEventResult {
            event_id,
            slots_with_data: 0,
            packets: 0,
            anomalies: Vec::new(),
            amplification: [None; FEATURES],
            last_slot_is_max: false,
            class: PreClass::NoData,
        };
    }
    keys.sort_unstable();

    // One pass over the sorted keys: a slot's rows are contiguous, and
    // equal flow tuples and equal sources are adjacent within it.
    let slots = &mut scratch.slots;
    slots.clear();
    let mut run = 0;
    while run < keys.len() {
        let slot = keys[run] >> KEY_SLOT;
        let end = run + keys[run..].partition_point(|k| k >> KEY_SLOT == slot);
        let (mut flows, mut sources, mut non_tcp) = (0u32, 0u32, 0u32);
        for j in run..end {
            let k = keys[j];
            if j == run || keys[j - 1] != k {
                flows += 1;
            }
            if j == run || keys[j - 1] >> KEY_SRC != k >> KEY_SRC {
                sources += 1;
            }
            scratch.dst_ports.insert((k >> 8) as u16);
            if Protocol::from_number(k as u8) != Protocol::Tcp {
                non_tcp += 1;
            }
        }
        slots.push((
            slot as usize,
            [
                (end - run) as f64,
                flows as f64,
                sources as f64,
                scratch.dst_ports.take_len() as f64,
                non_tcp as f64,
            ],
        ));
        run = end;
    }

    let first = slots[0].0;
    if scratch.detectors.is_empty() {
        scratch.detectors = (0..FEATURES)
            .map(|_| EwmaDetector::new(config.ewma))
            .collect();
    }
    for det in &mut scratch.detectors {
        det.reset_to_zeros(first);
    }
    let mut anomalies = Vec::new();
    let mut next = 0;
    for i in first..slot_count {
        let values = match slots.get(next) {
            Some(&(slot, values)) if slot == i => {
                next += 1;
                values
            }
            _ => [0.0; FEATURES],
        };
        let mut level = 0u8;
        for (det, &v) in scratch.detectors.iter_mut().zip(&values) {
            if v >= config.min_anomalous_value {
                if det.push(v).is_some_and(|verdict| verdict.is_anomaly) {
                    level += 1;
                }
            } else {
                det.update(v);
            }
        }
        if level > 0 {
            let slot_start = window_start + TimeDelta::millis(slot_ms * i as i64);
            anomalies.push(AnomalyHit {
                before_start: start - slot_start,
                level,
            });
        }
    }

    // Amplification factor: last slot vs pre-window mean per feature. The
    // values are small integers, so their sums are exact in any order and
    // the empty slots add nothing.
    let mut sum = [0.0f64; FEATURES];
    let mut max = [0.0f64; FEATURES];
    for (_, values) in slots.iter() {
        for f in 0..FEATURES {
            sum[f] += values[f];
            max[f] = max[f].max(values[f]);
        }
    }
    let last = match slots.last() {
        Some(&(slot, values)) if slot == slot_count - 1 => values,
        _ => [0.0; FEATURES],
    };
    let mut amplification = [None; FEATURES];
    let mut last_slot_is_max = false;
    for f in 0..FEATURES {
        let mean = sum[f] / slot_count as f64;
        if mean > 0.0 && last[f] > 0.0 {
            amplification[f] = Some(last[f] / mean);
        }
        if last[f] > 0.0 && last[f] >= max[f] {
            last_slot_is_max = true;
        }
    }

    let class = if anomalies
        .iter()
        .any(|a| a.before_start <= config.anomaly_horizon)
    {
        PreClass::DataAnomaly
    } else {
        PreClass::DataNoAnomaly
    };

    PreEventResult {
        event_id,
        slots_with_data: slots.len(),
        packets: keys.len() as u64,
        anomalies,
        amplification,
        last_slot_is_max,
        class,
    }
}

/// Analyzes one event's pre-window given the (time-sorted) ids of its
/// samples in the columnar store.
pub fn analyze_event(
    event: &RtbhEvent,
    cols: &ColumnarFlows,
    ids: &[u32],
    config: &PreEventConfig,
) -> PreEventResult {
    let rows = ids.iter().map(|&id| WindowRow::of(cols, id));
    window_result(
        event.id,
        event.start(),
        rows,
        config,
        &mut PreEventScratch::new(),
    )
}

/// The corpus-wide pre-event analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct PreEventAnalysis {
    /// One result per event, in event-id order.
    pub per_event: Vec<PreEventResult>,
    /// The configuration used.
    pub config: PreEventConfig,
}

impl PreEventAnalysis {
    /// Table 2: `(no-data, data-no-anomaly, data-anomaly)` shares.
    pub fn class_shares(&self) -> (f64, f64, f64) {
        let n = self.per_event.len().max(1) as f64;
        let count = |c: PreClass| self.per_event.iter().filter(|r| r.class == c).count() as f64 / n;
        (
            count(PreClass::NoData),
            count(PreClass::DataNoAnomaly),
            count(PreClass::DataAnomaly),
        )
    }

    /// Share of events with an anomaly within an arbitrary horizon (the
    /// paper quotes 27% at 10 min and 33% at 1 h).
    pub fn anomaly_share_within(&self, horizon: TimeDelta) -> f64 {
        let n = self.per_event.len().max(1) as f64;
        self.per_event
            .iter()
            .filter(|r| r.packets > 0 && r.anomaly_within(horizon))
            .count() as f64
            / n
    }

    /// Fig. 11: events sorted by slots-with-data; `(slots, cumulative
    /// events with ≤ slots)` curve.
    pub fn slot_coverage_curve(&self) -> Vec<(usize, usize)> {
        let mut counts: Vec<usize> = self.per_event.iter().map(|r| r.slots_with_data).collect();
        counts.sort_unstable();
        let mut curve = Vec::new();
        for (i, c) in counts.iter().enumerate() {
            if i + 1 == counts.len() || counts[i + 1] != *c {
                curve.push((*c, i + 1));
            }
        }
        curve
    }

    /// Fig. 12: histogram over `(minutes before start, level)`.
    pub fn anomaly_histogram(&self) -> std::collections::BTreeMap<(i64, u8), usize> {
        let mut hist = std::collections::BTreeMap::new();
        for r in &self.per_event {
            for a in &r.anomalies {
                *hist
                    .entry((a.before_start.as_minutes(), a.level))
                    .or_insert(0) += 1;
            }
        }
        hist
    }

    /// Fig. 13 material: all finite amplification factors, pooled over
    /// features, plus the share of events whose last slot is the maximum.
    pub fn amplification_factors(&self) -> (Vec<f64>, f64) {
        let factors: Vec<f64> = self
            .per_event
            .iter()
            .flat_map(|r| r.amplification.iter().flatten().copied())
            .collect();
        let all = self.per_event.len().max(1) as f64;
        let max_share = self.per_event.iter().filter(|r| r.last_slot_is_max).count() as f64 / all;
        (factors, max_share)
    }
}

/// Runs the pre-event analysis for all events.
pub fn analyze_preevents(
    events: &[RtbhEvent],
    index: &SampleIndex,
    cols: &ColumnarFlows,
    config: &PreEventConfig,
) -> PreEventAnalysis {
    let mut scratch = PreEventScratch::new();
    let per_event = events
        .iter()
        .map(|event| {
            let (start, end) = (event.start() - config.pre_window, event.start());
            let in_window = index.towards_within(event.prefix, cols, start, end);
            let rows = in_window.iter().map(|&id| WindowRow::of(cols, id));
            window_result(event.id, event.start(), rows, config, &mut scratch)
        })
        .collect();
    PreEventAnalysis {
        per_event,
        config: *config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_fabric::{FlowLog, FlowSample};
    use rtbh_net::{Asn, Interval, MacAddr};

    fn config() -> PreEventConfig {
        // Small windows so tests stay readable: 60-slot window, span 20.
        PreEventConfig {
            slot: TimeDelta::minutes(5),
            pre_window: TimeDelta::minutes(300),
            ewma: EwmaConfig {
                span: 20,
                threshold_sd: 2.5,
            },
            anomaly_horizon: TimeDelta::minutes(10),
            min_anomalous_value: 4.0,
        }
    }

    fn event(start_min: i64) -> RtbhEvent {
        let start = Timestamp::EPOCH + TimeDelta::minutes(start_min);
        RtbhEvent {
            id: 7,
            prefix: "10.0.0.7/32".parse().unwrap(),
            spans: vec![Interval::new(start, start + TimeDelta::minutes(30))],
            trigger_peer: Asn(1),
            origin: Asn(1),
            open_ended: false,
        }
    }

    fn sample(min: i64, src: &str, dst_port: u16, proto: Protocol) -> FlowSample {
        FlowSample {
            at: Timestamp::EPOCH + TimeDelta::minutes(min),
            src_mac: MacAddr::from_id(1),
            dst_mac: MacAddr::from_id(2),
            src_ip: src.parse().unwrap(),
            dst_ip: "10.0.0.7".parse().unwrap(),
            protocol: proto,
            src_port: 389,
            dst_port,
            packet_len: 1400,
            fragment: false,
        }
    }

    fn cols_of(samples: Vec<FlowSample>) -> (ColumnarFlows, Vec<u32>) {
        let cols = ColumnarFlows::from_log_with_capacity(&FlowLog::from_samples(samples), 0);
        let ids: Vec<u32> = (0..cols.len() as u32).collect();
        (cols, ids)
    }

    #[test]
    fn empty_pre_window_is_no_data() {
        let (cols, ids) = cols_of(Vec::new());
        let r = analyze_event(&event(300), &cols, &ids, &config());
        assert_eq!(r.class, PreClass::NoData);
        assert_eq!(r.slots_with_data, 0);
        assert!(r.anomalies.is_empty());
    }

    #[test]
    fn attack_spike_right_before_event_is_anomaly() {
        // Quiet history with sporadic packets, then a burst in the last slot.
        let mut samples = Vec::new();
        for i in 0..30 {
            samples.push(sample(i * 10, "8.8.8.8", 443, Protocol::Tcp));
        }
        for i in 0..120 {
            samples.push(sample(
                297,
                &format!("20.0.{}.{}", i / 250, i % 250 + 1),
                40000 + i,
                Protocol::Udp,
            ));
        }
        let (cols, ids) = cols_of(samples);
        let r = analyze_event(&event(300), &cols, &ids, &config());
        assert_eq!(r.class, PreClass::DataAnomaly);
        assert!(r.anomaly_within(TimeDelta::minutes(10)));
        let last = r.anomalies.last().unwrap();
        assert!(
            last.level >= 4,
            "burst must trip several features, got {}",
            last.level
        );
        assert!(r.last_slot_is_max);
        let packets_amp = r.amplification[0].unwrap();
        assert!(packets_amp > 10.0, "amplification factor {packets_amp}");
    }

    #[test]
    fn steady_traffic_is_data_no_anomaly() {
        // One packet roughly every slot, no burst.
        let samples: Vec<FlowSample> = (0..60)
            .map(|i| sample(i * 5, "8.8.8.8", 443, Protocol::Tcp))
            .collect();
        let (cols, ids) = cols_of(samples);
        let r = analyze_event(&event(300), &cols, &ids, &config());
        assert_eq!(r.class, PreClass::DataNoAnomaly);
        assert!(r.slots_with_data > 50);
    }

    #[test]
    fn old_anomaly_outside_horizon_is_not_the_trigger() {
        let mut samples: Vec<FlowSample> = (0..60)
            .map(|i| sample(i * 5, "8.8.8.8", 443, Protocol::Tcp))
            .collect();
        // Burst 100 minutes before the event (slot 40 of 60).
        for i in 0..100 {
            samples.push(sample(
                200,
                &format!("20.0.0.{}", i % 250 + 1),
                50_000 + i,
                Protocol::Udp,
            ));
        }
        let (cols, ids) = cols_of(samples);
        let r = analyze_event(&event(300), &cols, &ids, &config());
        assert_eq!(r.class, PreClass::DataNoAnomaly);
        assert!(r.anomaly_within(TimeDelta::minutes(150)));
        assert!(!r.anomaly_within(TimeDelta::minutes(10)));
    }

    #[test]
    fn class_shares_sum_to_one() {
        let analysis = PreEventAnalysis {
            per_event: vec![
                PreEventResult {
                    event_id: 0,
                    slots_with_data: 0,
                    packets: 0,
                    anomalies: vec![],
                    amplification: [None; FEATURES],
                    last_slot_is_max: false,
                    class: PreClass::NoData,
                },
                PreEventResult {
                    event_id: 1,
                    slots_with_data: 3,
                    packets: 5,
                    anomalies: vec![AnomalyHit {
                        before_start: TimeDelta::minutes(5),
                        level: 5,
                    }],
                    amplification: [Some(10.0); FEATURES],
                    last_slot_is_max: true,
                    class: PreClass::DataAnomaly,
                },
            ],
            config: config(),
        };
        let (a, b, c) = analysis.class_shares();
        assert!((a + b + c - 1.0).abs() < 1e-12);
        assert_eq!(analysis.slot_coverage_curve(), vec![(0, 1), (3, 2)]);
        let (factors, max_share) = analysis.amplification_factors();
        assert_eq!(factors.len(), FEATURES);
        // Denominator is all events (paper: "15% of the cases"): 1 of 2.
        assert!((max_share - 0.5).abs() < 1e-12);
        let hist = analysis.anomaly_histogram();
        assert_eq!(hist[&(5, 5)], 1);
    }

    #[test]
    fn warm_up_slots_cannot_alarm() {
        // A burst inside the first `span` slots must not produce anomalies.
        let samples: Vec<FlowSample> = (0..200)
            .map(|i| {
                sample(
                    30,
                    &format!("20.0.0.{}", i % 250 + 1),
                    50_000,
                    Protocol::Udp,
                )
            })
            .collect();
        let (cols, ids) = cols_of(samples);
        let r = analyze_event(&event(300), &cols, &ids, &config());
        assert!(
            r.anomalies.is_empty(),
            "burst sits in warm-up, got {:?}",
            r.anomalies
        );
        assert_eq!(r.class, PreClass::DataNoAnomaly);
    }
}

rtbh_json::impl_json! {
    struct PreEventConfig { slot, pre_window, ewma, anomaly_horizon, min_anomalous_value }
}

rtbh_json::impl_json! { enum PreClass { NoData, DataNoAnomaly, DataAnomaly } }

rtbh_json::impl_json! { struct AnomalyHit { before_start, level } }

rtbh_json::impl_json! {
    struct PreEventResult {
        event_id, slots_with_data, packets, anomalies, amplification,
        last_slot_is_max, class,
    }
}

rtbh_json::impl_json! { struct PreEventAnalysis { per_event, config } }
