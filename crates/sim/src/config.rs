//! Scenario configuration and presets.

/// All knobs of a scenario. The defaults and presets are calibrated so the
/// regenerated tables/figures match the paper's *shapes* (see DESIGN.md §5);
/// absolute magnitudes scale with the event counts and rates chosen here.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed; every derived RNG stream mixes this with a component tag.
    pub seed: u64,
    /// Length of the measurement period in days (paper: 104).
    pub days: u32,
    /// Number of IXP member ASes (paper: ~830 connected on average).
    pub members: u32,
    /// IPFIX sampling: 1 out of `sampling_rate` packets (paper: 10,000).
    pub sampling_rate: u32,
    /// Clock skew of the data-plane recorder relative to the control plane,
    /// in milliseconds (paper's estimate: −40 ms).
    pub clock_offset_ms: i64,

    // ---- event mix (Table 2 / Fig. 19 calibration) ----
    /// DDoS attacks visible at the IXP that trigger RTBHs (pre-event
    /// anomaly class, ≈27% of events in the paper).
    pub visible_attack_events: u32,
    /// RTBH events whose victim has steady baseline traffic but no attack
    /// spike at the IXP (data-but-no-anomaly class, ≈27%).
    pub constant_events: u32,
    /// RTBH events with no IXP-visible traffic at all — attacks mitigated or
    /// routed elsewhere (the bulk of the 46% no-data class).
    pub invisible_events: u32,
    /// Forgotten "zombie" blackholes: announced once, never withdrawn,
    /// fewer than 10 visible packets (≈13% of events).
    pub zombie_events: u32,
    /// Prefix-squatting protection: `(asns, prefixes)` — the paper found
    /// 4 ASes with 21 prefixes.
    pub squatting: (u32, u32),
    /// Blackholes established bilaterally, invisible to the route server
    /// (≈5% of dropped bytes in §3.1).
    pub bilateral_events: u32,

    // ---- population shapes ----
    /// Distinct amplifier-hosting origin ASes (paper: 11,124; scaled here).
    pub amplifier_origins: u32,
    /// Share of attack/constant victims that have steady baseline traffic
    /// crossing the IXP (enables ≥20-active-day host classification).
    pub baseline_host_share: f64,
    /// Among baseline victims, the share behaving like *clients* (DSL
    /// subscribers, gamers) rather than servers — the paper's surprise
    /// finding is a ~4:1 client:server ratio (Table 4).
    pub client_victim_share: f64,
    /// Share of visible attacks whose attack traffic stops at (or right
    /// after) the first RTBH announcement — the "anomaly but no traffic
    /// during the event" third of §5.4.
    pub short_attack_share: f64,
    /// Share of visible attacks using only hard-to-filter vectors (random
    /// ports, rising ports, multi-protocol) — the 10% remainder of Fig. 14.
    pub hard_attack_share: f64,
    /// Number of polluting samples from IXP-internal devices (the paper
    /// removes 47k internal flows, 0.01% of the total).
    pub internal_samples: u32,

    // ---- phases ----
    /// `(first_day, last_day)` of the period in which some members use
    /// targeted (selectively distributed) blackholes — Fig. 4's early
    /// October deviation. `None` disables targeting entirely.
    pub targeted_phase: Option<(u32, u32)>,
}

impl ScenarioConfig {
    /// The full-period preset: 104 virtual days, paper-shaped event mix at
    /// roughly 1:17 of the paper's event count so a corpus generates in tens
    /// of seconds (release build).
    pub fn paper() -> Self {
        Self {
            seed: 0x5EED_0001,
            days: 104,
            members: 830,
            sampling_rate: 10_000,
            clock_offset_ms: -40,
            visible_attack_events: 660,
            constant_events: 460,
            invisible_events: 600,
            zombie_events: 260,
            squatting: (4, 21),
            bilateral_events: 12,
            amplifier_origins: 1200,
            baseline_host_share: 0.55,
            client_victim_share: 0.78,
            short_attack_share: 0.45,
            hard_attack_share: 0.065,
            internal_samples: 400,
            targeted_phase: Some((8, 21)),
        }
    }

    /// A scaled-down variant of [`ScenarioConfig::paper`]: event counts and
    /// population sizes multiplied by `factor` (minimum sensible sizes are
    /// enforced); the period length is kept unless `factor < 0.2`, where it
    /// shrinks to keep densities similar.
    pub fn scaled(factor: f64) -> Self {
        let p = Self::paper();
        let f = |n: u32| ((n as f64 * factor).round() as u32).max(2);
        let days = if factor < 0.2 { 30 } else { p.days };
        Self {
            days,
            targeted_phase: p
                .targeted_phase
                .map(|(a, b)| (a.min(days / 3), b.min(days * 2 / 3).max(a.min(days / 3)))),
            members: ((p.members as f64 * factor.sqrt()).round() as u32).clamp(24, p.members),
            visible_attack_events: f(p.visible_attack_events),
            constant_events: f(p.constant_events),
            invisible_events: f(p.invisible_events),
            zombie_events: f(p.zombie_events),
            squatting: (p.squatting.0.min(4), f(p.squatting.1).min(21)),
            bilateral_events: f(p.bilateral_events).min(p.bilateral_events),
            amplifier_origins: f(p.amplifier_origins).max(40),
            internal_samples: f(p.internal_samples),
            ..p
        }
    }

    /// [`ScenarioConfig::scaled`] for a factor read from a command line:
    /// `None` unless `factor` is finite and above zero, because `scaled`
    /// turns zero, negative and NaN factors into a minimal scenario and an
    /// infinite one into `u32::MAX` events per kind.
    pub fn try_scaled(factor: f64) -> Option<Self> {
        (factor.is_finite() && factor > 0.0).then(|| Self::scaled(factor))
    }

    /// A tiny preset for unit/integration tests: 9 days, a handful of
    /// events, small member count. Runs in well under a second even in
    /// debug builds.
    pub fn tiny() -> Self {
        Self {
            seed: 0x7E57_0001,
            days: 9,
            members: 30,
            sampling_rate: 10_000,
            clock_offset_ms: -40,
            visible_attack_events: 16,
            constant_events: 11,
            invisible_events: 15,
            zombie_events: 6,
            squatting: (1, 3),
            bilateral_events: 2,
            amplifier_origins: 50,
            baseline_host_share: 0.6,
            client_victim_share: 0.75,
            short_attack_share: 0.3,
            hard_attack_share: 0.12,
            internal_samples: 20,
            targeted_phase: Some((4, 6)),
        }
    }

    /// Total planned RTBH events (squatting prefixes count as events).
    pub fn total_events(&self) -> u32 {
        self.visible_attack_events
            + self.constant_events
            + self.invisible_events
            + self.zombie_events
            + self.squatting.1
    }

    /// Basic sanity checks; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.days < 5 {
            return Err("scenario needs at least 5 days (72h pre-windows + slack)".into());
        }
        if self.members < 4 {
            return Err("scenario needs at least 4 members".into());
        }
        if self.sampling_rate == 0 {
            return Err("sampling rate must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.baseline_host_share)
            || !(0.0..=1.0).contains(&self.client_victim_share)
            || !(0.0..=1.0).contains(&self.short_attack_share)
            || !(0.0..=1.0).contains(&self.hard_attack_share)
        {
            return Err("shares must lie in [0, 1]".into());
        }
        if let Some((a, b)) = self.targeted_phase {
            if a > b || b >= self.days {
                return Err("targeted phase must lie inside the period".into());
            }
        }
        Ok(())
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ScenarioConfig::paper().validate().unwrap();
        ScenarioConfig::tiny().validate().unwrap();
        ScenarioConfig::scaled(0.1).validate().unwrap();
        ScenarioConfig::scaled(1.0).validate().unwrap();
    }

    #[test]
    fn paper_event_mix_matches_table2_shares() {
        let c = ScenarioConfig::paper();
        let total = c.total_events() as f64;
        // No-data class: invisible + zombies land near 46% once occasional
        // baselines and whisper-noise shift a few events between classes.
        let no_data = (c.invisible_events + c.zombie_events) as f64 / total;
        assert!((no_data - 0.44).abs() < 0.05, "no-data share {no_data}");
        // Visible attacks ≈ 33%; after the short-attack split this yields
        // the paper's 27% ≤10-min anomaly class and 33% ≤1-h share.
        let visible = c.visible_attack_events as f64 / total;
        assert!((visible - 0.33).abs() < 0.03, "visible share {visible}");
        let anomaly_10min = visible * (1.0 - c.short_attack_share * 0.4);
        assert!(
            (anomaly_10min - 0.27).abs() < 0.03,
            "≤10min share {anomaly_10min}"
        );
    }

    #[test]
    fn scaled_shrinks_events() {
        let s = ScenarioConfig::scaled(0.1);
        let p = ScenarioConfig::paper();
        assert!(s.total_events() < p.total_events() / 5);
        assert!(s.members < p.members);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut c = ScenarioConfig::tiny();
        c.days = 2;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::tiny();
        c.targeted_phase = Some((8, 20));
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::tiny();
        c.baseline_host_share = 1.5;
        assert!(c.validate().is_err());
    }
}

rtbh_json::impl_json! {
    struct ScenarioConfig {
        seed, days, members, sampling_rate, clock_offset_ms,
        visible_attack_events, constant_events, invisible_events,
        zombie_events, squatting, bilateral_events, amplifier_origins,
        baseline_host_share, client_victim_share, short_attack_share,
        hard_attack_share, internal_samples, targeted_phase,
    }
}
