//! Final RTBH use-case classification (paper §7.3, Fig. 19) and the
//! literature-based expectations (Table 1).

use rtbh_net::{Prefix, TimeDelta};

use crate::events::RtbhEvent;
use crate::preevent::{PreClass, PreEventAnalysis};
use crate::protocols::ProtocolAnalysis;

/// The RTBH use cases of paper §2 / Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UseCase {
    /// DDoS mitigation: a traffic anomaly precedes the blackhole.
    InfrastructureProtection,
    /// Announcing otherwise-unused space to deter prefix squatting.
    SquattingProtection,
    /// Long-forgotten host blackholes with almost no traffic.
    Zombie,
    /// No confident match with any known use case.
    Other,
}

impl std::fmt::Display for UseCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UseCase::InfrastructureProtection => "Infrastructure Protection",
            UseCase::SquattingProtection => "Squatting Protection",
            UseCase::Zombie => "RTBH Zombie",
            UseCase::Other => "Other",
        };
        f.write_str(s)
    }
}

/// Table 1: the literature-based expected characteristics of a use case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedProfile {
    /// How the blackhole is triggered.
    pub trigger: &'static str,
    /// Typical prefix length.
    pub prefix_length: &'static str,
    /// Reaction latency between cause and announcement.
    pub reaction_latency: &'static str,
    /// Typical active duration.
    pub duration: &'static str,
    /// Traffic expected towards the prefix.
    pub traffic: &'static str,
    /// Typical target.
    pub target: &'static str,
}

/// The Table 1 row for a use case (Zombie and Other have no literature row;
/// they get the operational profile this reproduction observed).
pub fn expected_profile(use_case: UseCase) -> ExpectedProfile {
    match use_case {
        UseCase::InfrastructureProtection => ExpectedProfile {
            trigger: "Automatic detection and triggering",
            prefix_length: "/32",
            reaction_latency: "Secs-Mins",
            duration: "Mins-Hours",
            traffic: "Attack",
            target: "Server",
        },
        UseCase::SquattingProtection => ExpectedProfile {
            trigger: "Manual",
            prefix_length: "<= /24",
            reaction_latency: "NA",
            duration: "Months",
            traffic: "Scanning",
            target: "None",
        },
        UseCase::Zombie => ExpectedProfile {
            trigger: "Manual (forgotten)",
            prefix_length: "/32",
            reaction_latency: "NA",
            duration: "Until noticed",
            traffic: "None",
            target: "None",
        },
        UseCase::Other => ExpectedProfile {
            trigger: "Unknown",
            prefix_length: "Any",
            reaction_latency: "NA",
            duration: "Any",
            traffic: "Constant",
            target: "Unknown",
        },
    }
}

/// Thresholds of the classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifyConfig {
    /// Minimum total duration for squatting protection.
    pub squatting_min_duration: TimeDelta,
    /// Minimum duration for a zombie.
    pub zombie_min_duration: TimeDelta,
    /// Maximum during-event packets for a zombie (paper: "fewer than 10").
    pub zombie_max_packets: u64,
}

impl ClassifyConfig {
    /// Defaults scaled to a ~100-day corpus.
    pub const PAPER: Self = Self {
        squatting_min_duration: TimeDelta::days(21),
        zombie_min_duration: TimeDelta::days(14),
        zombie_max_packets: 10,
    };

    /// Scales the duration thresholds for short test corpora.
    pub fn for_period(period: TimeDelta) -> Self {
        let days = period.as_millis() / TimeDelta::days(1).as_millis();
        if days >= 60 {
            Self::PAPER
        } else {
            Self {
                squatting_min_duration: TimeDelta::days((days / 3).max(1)),
                zombie_min_duration: TimeDelta::days((days / 4).max(1)),
                zombie_max_packets: 10,
            }
        }
    }

    /// The use-case precedence batch events and live stream runs share:
    /// an anomaly ⇒ infrastructure protection; else a prefix of /24 or
    /// shorter lasting at least `squatting_min_duration` ⇒ squatting; else
    /// a host prefix lasting at least `zombie_min_duration`, with fewer
    /// than `zombie_max_packets` during-event packets and still open at
    /// the period end ⇒ zombie; else other.
    pub fn use_case(
        &self,
        anomaly: bool,
        prefix: Prefix,
        duration: TimeDelta,
        during_packets: u64,
        open_ended: bool,
    ) -> UseCase {
        if anomaly {
            UseCase::InfrastructureProtection
        } else if prefix.len() <= 24 && duration >= self.squatting_min_duration {
            UseCase::SquattingProtection
        } else if prefix.is_host()
            && duration >= self.zombie_min_duration
            && during_packets < self.zombie_max_packets
            && open_ended
        {
            UseCase::Zombie
        } else {
            UseCase::Other
        }
    }
}

/// One classified event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifiedEvent {
    /// The event's id.
    pub event_id: usize,
    /// The assigned use case.
    pub use_case: UseCase,
    /// The event's total duration.
    pub duration: TimeDelta,
    /// True if the event was still active at corpus end.
    pub open_ended: bool,
}

/// The corpus-wide classification.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// One verdict per event, id order.
    pub per_event: Vec<ClassifiedEvent>,
}

impl Classification {
    /// Share of events per use case (Fig. 19).
    pub fn shares(&self) -> std::collections::BTreeMap<UseCase, f64> {
        let n = self.per_event.len().max(1) as f64;
        let mut shares = std::collections::BTreeMap::new();
        for e in &self.per_event {
            *shares.entry(e.use_case).or_insert(0.0) += 1.0 / n;
        }
        shares
    }

    /// Counts per use case.
    pub fn counts(&self) -> std::collections::BTreeMap<UseCase, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for e in &self.per_event {
            *counts.entry(e.use_case).or_insert(0) += 1;
        }
        counts
    }

    /// Duration buckets per use case (Fig. 19's duration dimension):
    /// `[<1h, 1–6h, 6–24h, 1–7d, >7d]` counts.
    pub fn duration_buckets(&self, use_case: UseCase) -> [usize; 5] {
        let mut buckets = [0usize; 5];
        for e in self.per_event.iter().filter(|e| e.use_case == use_case) {
            let h = e.duration.as_millis() as f64 / 3_600_000.0;
            let idx = if h < 1.0 {
                0
            } else if h < 6.0 {
                1
            } else if h < 24.0 {
                2
            } else if h < 168.0 {
                3
            } else {
                4
            };
            buckets[idx] += 1;
        }
        buckets
    }
}

/// Classifies every event.
pub fn classify_events(
    events: &[RtbhEvent],
    preevents: &PreEventAnalysis,
    traffic: &ProtocolAnalysis,
    config: &ClassifyConfig,
) -> Classification {
    let per_event = events
        .iter()
        .map(|event| {
            let duration = event.duration();
            let anomaly = preevents
                .per_event
                .get(event.id)
                .is_some_and(|r| r.class == PreClass::DataAnomaly);
            let during_packets = traffic.per_event.get(event.id).map_or(0, |t| t.packets);
            ClassifiedEvent {
                event_id: event.id,
                use_case: config.use_case(
                    anomaly,
                    event.prefix,
                    duration,
                    during_packets,
                    event.open_ended,
                ),
                duration,
                open_ended: event.open_ended,
            }
        })
        .collect();
    Classification { per_event }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preevent::{PreEventConfig, PreEventResult, FEATURES};
    use crate::protocols::EventTraffic;
    use rtbh_net::{Asn, Interval, Timestamp};

    fn event(id: usize, prefix: &str, start_h: i64, end_h: i64, open: bool) -> RtbhEvent {
        let start = Timestamp::EPOCH + TimeDelta::hours(start_h);
        let end = Timestamp::EPOCH + TimeDelta::hours(end_h);
        RtbhEvent {
            id,
            prefix: prefix.parse().unwrap(),
            spans: vec![Interval::new(start, end)],
            trigger_peer: Asn(1),
            origin: Asn(1),
            open_ended: open,
        }
    }

    fn pre(id: usize, class: PreClass, packets: u64) -> PreEventResult {
        PreEventResult {
            event_id: id,
            slots_with_data: if packets > 0 { 1 } else { 0 },
            packets,
            anomalies: vec![],
            amplification: [None; FEATURES],
            last_slot_is_max: false,
            class,
        }
    }

    fn during(id: usize, packets: u64) -> EventTraffic {
        EventTraffic {
            event_id: id,
            packets,
            by_protocol: [packets, 0, 0, 0],
            amplification: Default::default(),
            preceded_by_anomaly: false,
        }
    }

    fn run(
        events: Vec<RtbhEvent>,
        pres: Vec<PreEventResult>,
        durs: Vec<EventTraffic>,
    ) -> Classification {
        let preevents = PreEventAnalysis {
            per_event: pres,
            config: PreEventConfig::PAPER,
        };
        let traffic = ProtocolAnalysis { per_event: durs };
        classify_events(&events, &preevents, &traffic, &ClassifyConfig::PAPER)
    }

    #[test]
    fn anomaly_events_are_infrastructure_protection() {
        let c = run(
            vec![event(0, "10.0.0.7/32", 100, 103, false)],
            vec![pre(0, PreClass::DataAnomaly, 500)],
            vec![during(0, 400)],
        );
        assert_eq!(c.per_event[0].use_case, UseCase::InfrastructureProtection);
    }

    #[test]
    fn long_short_prefix_is_squatting() {
        let c = run(
            vec![event(0, "10.0.0.0/24", 0, 24 * 40, true)],
            vec![pre(0, PreClass::DataNoAnomaly, 30)],
            vec![during(0, 50)],
        );
        assert_eq!(c.per_event[0].use_case, UseCase::SquattingProtection);
    }

    #[test]
    fn forgotten_host_blackhole_is_zombie() {
        let c = run(
            vec![event(0, "10.0.0.7/32", 0, 24 * 60, true)],
            vec![pre(0, PreClass::NoData, 0)],
            vec![during(0, 3)],
        );
        assert_eq!(c.per_event[0].use_case, UseCase::Zombie);
    }

    #[test]
    fn busy_long_host_blackhole_is_other_not_zombie() {
        let c = run(
            vec![event(0, "10.0.0.7/32", 0, 24 * 60, true)],
            vec![pre(0, PreClass::DataNoAnomaly, 900)],
            vec![during(0, 500)],
        );
        assert_eq!(c.per_event[0].use_case, UseCase::Other);
    }

    #[test]
    fn short_event_without_anomaly_is_other() {
        let c = run(
            vec![event(0, "10.0.0.7/32", 100, 102, false)],
            vec![pre(0, PreClass::DataNoAnomaly, 10)],
            vec![during(0, 5)],
        );
        assert_eq!(c.per_event[0].use_case, UseCase::Other);
    }

    #[test]
    fn shares_sum_to_one_and_buckets_count() {
        let c = run(
            vec![
                event(0, "10.0.0.7/32", 100, 103, false),
                event(1, "10.0.1.0/24", 0, 24 * 40, true),
            ],
            vec![
                pre(0, PreClass::DataAnomaly, 100),
                pre(1, PreClass::NoData, 0),
            ],
            vec![during(0, 10), during(1, 0)],
        );
        let total: f64 = c.shares().values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        let buckets = c.duration_buckets(UseCase::SquattingProtection);
        assert_eq!(buckets[4], 1, "40 days lands in the >7d bucket");
    }

    #[test]
    fn config_scales_for_short_periods() {
        let short = ClassifyConfig::for_period(TimeDelta::days(9));
        assert!(short.squatting_min_duration < ClassifyConfig::PAPER.squatting_min_duration);
        let long = ClassifyConfig::for_period(TimeDelta::days(104));
        assert_eq!(long, ClassifyConfig::PAPER);
    }

    #[test]
    fn expected_profiles_cover_all_cases() {
        for uc in [
            UseCase::InfrastructureProtection,
            UseCase::SquattingProtection,
            UseCase::Zombie,
            UseCase::Other,
        ] {
            let p = expected_profile(uc);
            assert!(!p.trigger.is_empty());
            assert!(!uc.to_string().is_empty());
        }
    }
}

rtbh_json::impl_json! {
    enum UseCase { InfrastructureProtection, SquattingProtection, Zombie, Other }
}

rtbh_json::impl_json! {
    serialize struct ExpectedProfile {
        trigger, prefix_length, reaction_latency, duration, traffic, target,
    }
}

rtbh_json::impl_json! {
    struct ClassifyConfig { squatting_min_duration, zombie_min_duration, zombie_max_packets }
}

rtbh_json::impl_json! {
    struct ClassifiedEvent { event_id, use_case, duration, open_ended }
}

rtbh_json::impl_json! { struct Classification { per_event } }
