//! One generator per table/figure of the paper.

use std::collections::{BTreeMap, BTreeSet};

use rtbh_core::classify::{expected_profile, UseCase};
use rtbh_core::hosts::HostClass;
use rtbh_net::TimeDelta;
use rtbh_peeringdb::OrgType;
use rtbh_sim::EventKind;

use crate::render::{cdf_row, sparkline, FigureReport};
use crate::Context;

/// Table 1: literature-based expectations (static knowledge, rendered for
/// completeness).
pub fn t1(_ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("t1", "Expected characteristics of RTBHs by use case");
    for uc in [
        UseCase::InfrastructureProtection,
        UseCase::SquattingProtection,
    ] {
        let p = expected_profile(uc);
        r.line(format!(
            "{uc}: trigger={} len={} latency={} duration={} traffic={} target={}",
            p.trigger, p.prefix_length, p.reaction_latency, p.duration, p.traffic, p.target
        ));
    }
    r
}

/// Fig. 2: MLE time offset between control and data plane.
pub fn f2(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f2", "MLE estimate of control/data-plane time offset");
    match &ctx.report.alignment {
        Some(a) => {
            let overlaps: Vec<f64> = a.scan.curve.iter().map(|p| p.overlap).collect();
            r.line(format!(
                "likelihood curve ({} offsets): {}",
                overlaps.len(),
                sparkline(&overlaps)
            ));
            r.line(format!(
                "best offset {} at overlap {:.4} over {} dropped samples (injected skew: {} ms)",
                a.estimated_offset(),
                a.best_overlap(),
                a.dropped_samples,
                ctx.truth.clock_offset_ms
            ));
            r.check(
                "estimated offset (s)",
                Some(-(ctx.truth.clock_offset_ms as f64) / 1000.0),
                a.estimated_offset().as_seconds_f64(),
            );
            r.check("max overlap share", Some(0.9936), a.best_overlap());
        }
        None => r.line("no dropped samples — alignment unavailable"),
    }
    r
}

/// Fig. 3: number of active parallel RTBHs and message load over time.
pub fn f3(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f3", "Active parallel RTBHs over time");
    let load = &ctx.report.load;
    let active: Vec<f64> = load.active_series.iter().map(|(_, c)| *c as f64).collect();
    let msgs: Vec<f64> = load.message_series.iter().map(|(_, c)| *c as f64).collect();
    r.line(format!("active RTBHs: {}", sparkline(&active)));
    r.line(format!("messages/min: {}", sparkline(&msgs)));
    r.line(format!(
        "mean active {:.0}, peak {}, total msgs {}, peak msgs/min {}, {} announcing peers, {} origin ASes",
        load.mean_active,
        load.peak_active,
        load.total_messages,
        load.peak_messages_per_minute,
        load.announcing_peers,
        load.origin_asns
    ));
    // Scale-dependent absolutes: report the scale-free ratios.
    r.check(
        "peak/mean active ratio (paper 1400/1107)",
        Some(1400.0 / 1107.0),
        load.peak_active as f64 / load.mean_active.max(1e-9),
    );
    r.check(
        "announcing peers (paper 78, scaled)",
        None,
        load.announcing_peers as f64,
    );
    r
}

/// Fig. 4: share of blackholes filtered per peer-visibility percentile.
pub fn f4(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f4", "Blackholes filtered from 100/99/50-percentile peers");
    let series = &ctx.report.visibility;
    let median: Vec<f64> = series.iter().map(|p| p.median).collect();
    let p99: Vec<f64> = series.iter().map(|p| p.p99).collect();
    let max: Vec<f64> = series.iter().map(|p| p.max).collect();
    r.line(format!("median peer: {}", sparkline(&median)));
    r.line(format!("p99 peer:    {}", sparkline(&p99)));
    r.line(format!("worst peer:  {}", sparkline(&max)));
    let peak_median = median.iter().copied().fold(0.0f64, f64::max);
    let peak_max = max.iter().copied().fold(0.0f64, f64::max);
    // Outside the targeted phase the median must collapse to ~0.
    let phase = ctx.config.targeted_phase.unwrap_or((0, 0));
    let post: Vec<f64> = series
        .iter()
        .filter(|p| p.at.day() as u32 > phase.1 + 1)
        .map(|p| p.median)
        .collect();
    let post_median_peak = post.iter().copied().fold(0.0f64, f64::max);
    r.check(
        "peak median missed share (paper 0.062)",
        Some(0.062),
        peak_median,
    );
    r.check(
        "peak single-peer missed share (paper 0.108)",
        Some(0.108),
        peak_max,
    );
    r.check(
        "post-phase median peak (paper ≤0.002)",
        Some(0.002),
        post_median_peak,
    );
    r
}

/// Fig. 5: dropped-traffic shares by prefix length.
pub fn f5(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new(
        "f5",
        "Observed shares of dropped traffic by RTBH prefix length",
    );
    let acc = &ctx.report.acceptance;
    let shares = acc.traffic_share_by_length();
    for (len, tally) in &acc.by_length {
        r.line(format!(
            "/{len:<2} drop {:>5.1}% pkts {:>5.1}% bytes | traffic share {:>8.5} | {:>9} pkts",
            tally.packet_drop_rate() * 100.0,
            tally.byte_drop_rate() * 100.0,
            shares.get(len).copied().unwrap_or(0.0),
            tally.packets()
        ));
    }
    if let Some((p32, b32)) = acc.drop_rate_for_length(32) {
        r.check("/32 packet drop share (paper 0.50)", Some(0.50), p32);
        r.check("/32 byte drop share (paper 0.44)", Some(0.44), b32);
    }
    if let Some((p24, _)) = acc.drop_rate_for_length(24) {
        r.check("/24 packet drop share (paper 0.93–0.99)", Some(0.96), p24);
    }
    r.check(
        "/32 traffic share (paper ~0.999)",
        Some(0.999),
        shares.get(&32).copied().unwrap_or(0.0),
    );
    r
}

/// Fig. 6: drop-rate CDFs for /24 and /32.
pub fn f6(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new(
        "f6",
        "Distribution of dropped RTBH traffic shares, /24 vs /32",
    );
    let acc = &ctx.report.acceptance;
    let cdf24 = acc.drop_rate_cdf(24);
    let cdf32 = acc.drop_rate_cdf(32);
    r.line(cdf_row("/24 drop rates", &cdf24));
    r.line(cdf_row("/32 drop rates", &cdf32));
    if let Some(m) = cdf24.median() {
        r.check("/24 median drop rate (paper 0.97)", Some(0.97), m);
    }
    if !cdf32.is_empty() {
        r.check(
            "/32 q25 drop rate (paper 0.30)",
            Some(0.30),
            cdf32.quantile(0.25).unwrap(),
        );
        r.check(
            "/32 median drop rate (paper 0.53)",
            Some(0.53),
            cdf32.median().unwrap(),
        );
        r.check(
            "/32 q75 drop rate (paper 0.88)",
            Some(0.88),
            cdf32.quantile(0.75).unwrap(),
        );
    }
    r
}

/// Fig. 7: reaction of the top-100 source ASes to /32 RTBHs.
pub fn f7(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f7", "Reaction of top-100 source ASes to /32 RTBHs");
    let acc = &ctx.report.acceptance;
    let top = acc.top_sources_32(100);
    let (dropping, forwarding, inconsistent) = acc.source_reaction_buckets(100);
    let rates: Vec<f64> = top.iter().map(|(_, t)| t.packet_drop_rate()).collect();
    r.line(format!(
        "per-AS drop rates (rank order): {}",
        sparkline(&rates)
    ));
    r.line(format!(
        "top {} ASes: {dropping} dropping ≥99%, {forwarding} forwarding ≥99%, {inconsistent} inconsistent",
        top.len()
    ));
    let n = top.len().max(1) as f64;
    r.check(
        "dropping share of top-100 (paper 0.32)",
        Some(0.32),
        dropping as f64 / n,
    );
    r.check(
        "forwarding share of top-100 (paper 0.55)",
        Some(0.55),
        forwarding as f64 / n,
    );
    r.check(
        "inconsistent share of top-100 (paper 0.13)",
        Some(0.13),
        inconsistent as f64 / n,
    );
    r
}

/// Fig. 8: PeeringDB org types of the top-100 source ASes.
pub fn f8(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f8", "Org types of top-100 source ASes (to /32 RTBHs)");
    let hist = ctx
        .report
        .acceptance
        .top_source_org_types(100, &ctx.analyzer.corpus().registry);
    let total: usize = hist.values().sum();
    for (t, c) in &hist {
        r.line(format!(
            "{t:<22} {c:>4} ({:.0}%)",
            *c as f64 * 100.0 / total.max(1) as f64
        ));
    }
    let nsp = hist.get(&OrgType::Nsp).copied().unwrap_or(0) as f64 / total.max(1) as f64;
    let max_share = hist
        .values()
        .map(|&c| c as f64 / total.max(1) as f64)
        .fold(0.0, f64::max);
    r.check("NSP share of top-100 (paper: largest group)", None, nsp);
    r.check(
        "NSP is the modal type (1=yes)",
        Some(1.0),
        f64::from(nsp >= max_share - 1e-12),
    );
    r
}

/// Fig. 9: one attack event's on-off re-announcement pattern (illustrative).
pub fn f9(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f9", "Attack and RTBH events: a re-announced sequence");
    let Some(example) = ctx
        .truth
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::AttackVisible { .. }))
        .max_by_key(|e| e.announcement_spans.len())
    else {
        r.line("no visible attack events in scenario");
        return r;
    };
    if let EventKind::AttackVisible {
        attack_window,
        peak_pps,
        vectors,
        ..
    } = &example.kind
    {
        r.line(format!(
            "attack on {} ({} @ {:.0} pps): {} → {}",
            example.victim,
            vectors
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("+"),
            peak_pps,
            attack_window.start,
            attack_window.end
        ));
    }
    for (i, span) in example.announcement_spans.iter().enumerate() {
        r.line(format!(
            "  RTBH run {}: announce {} … withdraw {}",
            i + 1,
            span.start,
            span.end
        ));
    }
    let inferred = ctx
        .analyzer
        .events()
        .iter()
        .filter(|e| e.prefix == example.prefix)
        .min_by_key(|e| (e.start() - example.first_announce()).abs().as_millis())
        .map(|e| e.spans.len())
        .unwrap_or(0);
    r.check(
        "announce runs merged into one event",
        Some(example.announcement_spans.len() as f64),
        inferred as f64,
    );
    r
}

/// Fig. 10: fraction of blackholing events vs merge threshold Δ.
pub fn f10(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f10", "Fraction of RTBH events in all announcements vs Δ");
    let deltas: Vec<TimeDelta> = [0i64, 1, 2, 3, 5, 8, 10, 15, 20, 30, 60, 120]
        .into_iter()
        .map(TimeDelta::minutes)
        .collect();
    let (curve, lower_bound) = rtbh_core::events::merge_sweep(
        &ctx.analyzer.corpus().updates,
        &deltas,
        ctx.analyzer.corpus().period.end,
    );
    let fractions: Vec<f64> = curve.iter().map(|p| p.event_fraction).collect();
    r.line(format!("event fraction over Δ: {}", sparkline(&fractions)));
    for p in &curve {
        r.line(format!(
            "Δ={:>4} → {:>6} events ({:.3})",
            p.delta.to_string(),
            p.events,
            p.event_fraction
        ));
    }
    r.line(format!(
        "Δ=∞ lower bound (unique prefixes / announcements): {lower_bound:.3}"
    ));
    let at10 = curve
        .iter()
        .find(|p| p.delta == TimeDelta::minutes(10))
        .expect("Δ=10 scanned");
    let at15 = curve
        .iter()
        .find(|p| p.delta == TimeDelta::minutes(15))
        .expect("Δ=15 scanned");
    r.check(
        "event fraction at Δ=10min (paper 0.085)",
        Some(0.085),
        at10.event_fraction,
    );
    r.check(
        "knee: relative change 10→15 min (paper: small)",
        None,
        (at10.event_fraction - at15.event_fraction) / at10.event_fraction.max(1e-9),
    );
    r
}

/// Fig. 11: cumulative slots with samples in pre-RTBH windows.
pub fn f11(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f11", "Slots contributing samples within 72h pre-RTBH");
    let pre = &ctx.report.preevents;
    let curve = pre.slot_coverage_curve();
    let ys: Vec<f64> = curve.iter().map(|(_, c)| *c as f64).collect();
    r.line(format!(
        "cumulative events over slot count: {}",
        sparkline(&ys)
    ));
    let total = pre.per_event.len();
    let zero = pre
        .per_event
        .iter()
        .filter(|e| e.slots_with_data == 0)
        .count();
    let sparse = pre
        .per_event
        .iter()
        .filter(|e| e.slots_with_data > 0 && e.slots_with_data <= 24)
        .count();
    let with_data = total - zero;
    r.line(format!(
        "{total} events: {zero} without any pre-window sample, {sparse} with ≤24 slots"
    ));
    r.check(
        "no-pre-data share (paper 0.46)",
        Some(0.46),
        zero as f64 / total.max(1) as f64,
    );
    r.check(
        "≤24-slot share among with-data (paper 13k/18k≈0.72)",
        Some(0.72),
        sparse as f64 / with_data.max(1) as f64,
    );
    r
}

/// Fig. 12: level and time offset of pre-RTBH anomalies.
pub fn f12(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f12", "Level and time offset of pre-RTBH anomalies");
    let hist = ctx.report.preevents.anomaly_histogram();
    let mut by_offset: BTreeMap<i64, usize> = BTreeMap::new();
    let mut by_level: BTreeMap<u8, usize> = BTreeMap::new();
    for ((mins, level), count) in &hist {
        *by_offset.entry(*mins).or_insert(0) += count;
        *by_level.entry(*level).or_insert(0) += count;
    }
    let total: usize = hist.values().sum();
    let within_10: usize = by_offset
        .iter()
        .filter(|(m, _)| **m <= 10)
        .map(|(_, c)| *c)
        .sum();
    for (level, count) in &by_level {
        r.line(format!("level {level}: {count} anomalies"));
    }
    r.line(format!(
        "{total} anomalous slots; {within_10} within 10 min of the announcement"
    ));
    r.check(
        "share of anomalies ≤10 min before RTBH (paper: most)",
        None,
        within_10 as f64 / total.max(1) as f64,
    );
    let level5 = by_level.get(&5).copied().unwrap_or(0);
    let modal = by_level.values().copied().max().unwrap_or(0);
    r.check(
        "level 5 is modal (paper: usually all five)",
        Some(1.0),
        f64::from(level5 == modal),
    );
    r
}

/// Fig. 13: anomaly amplification factor of the last pre-RTBH slot.
pub fn f13(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f13", "Last slot vs pre-event mean (amplification factor)");
    let (factors, max_share) = ctx.report.preevents.amplification_factors();
    let cdf: rtbh_stats::Ecdf = factors.iter().copied().collect();
    r.line(cdf_row("amplification factors", &cdf));
    r.check(
        "max factor (paper: up to ~800)",
        None,
        cdf.max().unwrap_or(0.0),
    );
    r.check(
        "share of events where last slot is max (paper 0.15)",
        Some(0.15),
        max_share,
    );
    r
}

/// Table 2: class distribution of pre-RTBH events.
pub fn t2(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("t2", "Class distribution of pre-RTBH events");
    let (no_data, no_anomaly, anomaly) = ctx.report.preevents.class_shares();
    r.line(format!(
        "no data: {:.1}%  data w/o anomaly: {:.1}%  data+anomaly(≤10min): {:.1}%",
        no_data * 100.0,
        no_anomaly * 100.0,
        anomaly * 100.0
    ));
    r.check("no-data share (paper 0.46)", Some(0.46), no_data);
    r.check("data-no-anomaly share (paper 0.27)", Some(0.27), no_anomaly);
    r.check("anomaly share (paper 0.27)", Some(0.27), anomaly);
    let within_hour = ctx
        .report
        .preevents
        .anomaly_share_within(TimeDelta::hours(1));
    r.check(
        "anomaly within 1h share (paper 0.33)",
        Some(0.33),
        within_hour,
    );
    r
}

/// Table 3: distinct UDP amplification protocols per anomaly event.
pub fn t3(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("t3", "Different amplification protocols per RTBH event");
    let table = ctx.report.protocols.amplification_protocol_table();
    r.line(format!(
        "protocols 0..=5: {}",
        table
            .iter()
            .map(|s| format!("{:.1}%", s * 100.0))
            .collect::<Vec<_>>()
            .join("  ")
    ));
    let paper = [0.06, 0.40, 0.45, 0.083, 0.006, 0.001];
    for (k, (p, m)) in paper.iter().zip(table.iter()).enumerate() {
        r.check(format!("share with {k} protocols"), Some(*p), *m);
    }
    let top = ctx.report.protocols.top_amplification_protocols();
    let names: Vec<String> = top
        .iter()
        .take(5)
        .map(|(p, c)| format!("{p} ({c} events)"))
        .collect();
    r.line(format!("most common: {}", names.join(", ")));
    r
}

/// Fig. 14: share of event traffic removable by known amplification ports.
pub fn f14(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new(
        "f14",
        "Dropped packets per event if filtered by known UDP amplification",
    );
    let cdf = ctx.report.filtering.filterable_share_cdf();
    r.line(cdf_row("filterable shares", &cdf));
    // "Complete" coverage allows for a stray sampled baseline packet: at
    // this corpus scale one legitimate sample in a 300-packet event would
    // otherwise flip the verdict.
    r.check(
        "fully filterable event share (paper 0.90)",
        Some(0.90),
        ctx.report.filtering.fully_filterable_share(0.98),
    );
    r
}

/// Fig. 15: AS participation in amplification attacks.
pub fn f15(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f15", "ASes participating in UDP amplification attacks");
    let f = &ctx.report.filtering;
    let handover_cdf = f.participation_cdf(false);
    let origin_cdf = f.participation_cdf(true);
    r.line(cdf_row("handover AS participation", &handover_cdf));
    r.line(cdf_row("origin AS participation", &origin_cdf));
    let top_h = f.top_participants(false, 10);
    let top_o = f.top_participants(true, 10);
    if let (Some(h), Some(o)) = (top_h.first(), top_o.first()) {
        r.line(format!(
            "top handover {} in {:.0}% of events; top origin {} in {:.0}%",
            h.0,
            h.1 * 100.0,
            o.0,
            o.1 * 100.0
        ));
        r.check("top origin participation (paper 0.60)", Some(0.60), o.1);
        r.check("top handover participation (paper 0.62)", Some(0.62), h.1);
        r.check(
            "top origin == top handover AS (paper: yes)",
            Some(1.0),
            f64::from(h.0 == o.0),
        );
    }
    let members = ctx.analyzer.corpus().members.len().max(1);
    r.check(
        "participating handover share of members (paper 0.55)",
        Some(0.55),
        f.handover_participation.len() as f64 / members as f64,
    );
    // Distinct origins of the route snapshot, one per prefix: a later
    // route for a prefix replaces an earlier one, as in `OriginTable`.
    let per_prefix: BTreeMap<_, _> = ctx.analyzer.corpus().routes.iter().copied().collect();
    let advertised = per_prefix.values().collect::<BTreeSet<_>>().len().max(1);
    r.check(
        "participating origin share of advertised (paper 0.17)",
        Some(0.17),
        f.origin_participation.len() as f64 / advertised as f64,
    );
    let (srcs, handovers, origins) = f.mean_spread();
    r.line(format!(
        "mean per event: {srcs:.0} amplifiers, {handovers:.0} handover ASes, {origins:.0} origin ASes (paper: 1086/30/73, scaled)"
    ));
    r
}

/// Fig. 16: RadViz projection of host port-diversity features.
pub fn f16(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f16", "RadViz projection of per-host port features");
    let eligible: Vec<_> = ctx
        .report
        .hosts
        .hosts
        .iter()
        .filter(|h| h.class != HostClass::InsufficientData)
        .collect();
    // Anchors: [src-in, src-out, dst-in, dst-out]. Client-like hosts are
    // pulled towards dst-in (anchor 2, negative x); servers towards src-in
    // (anchor 0, positive x).
    let client_side = eligible.iter().filter(|h| h.radviz.x < 0.0).count();
    let server_side = eligible.iter().filter(|h| h.radviz.x > 0.0).count();
    r.line(format!(
        "{} eligible hosts: {client_side} pulled client-ward (x<0), {server_side} server-ward (x>0)",
        eligible.len()
    ));
    let mut grid = [[0usize; 21]; 9];
    for h in &eligible {
        let col = (((h.radviz.x + 1.0) / 2.0) * 20.0).round() as usize;
        let row = (((h.radviz.y + 1.0) / 2.0) * 8.0).round() as usize;
        grid[row.min(8)][col.min(20)] += 1;
    }
    for row in grid.iter().rev() {
        let line: String = row
            .iter()
            .map(|&c| match c {
                0 => '·',
                1..=2 => '+',
                3..=9 => 'o',
                _ => '#',
            })
            .collect();
        r.line(line);
    }
    r.check(
        "more client-pulled than server-pulled hosts (paper: yes)",
        Some(1.0),
        f64::from(client_side > server_side),
    );
    r
}

/// Fig. 17: top-port variation and classification.
pub fn f17(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f17", "Top-port variation and host classification");
    let hosts = &ctx.report.hosts;
    let (clients, servers) = hosts.client_server_counts();
    let scatter = hosts.variation_scatter();
    let high = scatter.iter().filter(|(_, v, _)| *v >= 0.66).count();
    let low = scatter.iter().filter(|(_, v, _)| *v <= 0.34).count();
    r.line(format!(
        "{} hosts with incoming data; variation ≥0.66: {high}, ≤0.34: {low}",
        scatter.len()
    ));
    r.line(format!(
        "classified (≥{} active days): {clients} clients, {servers} servers",
        hosts.config.min_days
    ));
    r.check(
        "client:server ratio (paper 4057/1036≈3.9)",
        Some(4057.0 / 1036.0),
        clients as f64 / servers.max(1) as f64,
    );
    r.check(
        "eligible host share (paper 0.30)",
        Some(0.30),
        hosts.eligible_share(),
    );
    r
}

/// Table 4: AS types of detected clients and servers.
pub fn t4(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("t4", "ASN types for detected client/server victims");
    let (clients, servers) = ctx
        .report
        .hosts
        .org_type_table(&ctx.analyzer.corpus().registry);
    let ctotal: usize = clients.values().sum();
    let stotal: usize = servers.values().sum();
    r.line(format!("{ctotal} clients / {stotal} servers"));
    for t in OrgType::ALL {
        let c = clients.get(&t).copied().unwrap_or(0) as f64 / ctotal.max(1) as f64;
        let s = servers.get(&t).copied().unwrap_or(0) as f64 / stotal.max(1) as f64;
        r.line(format!(
            "{t:<22} clients {:>5.1}%  servers {:>5.1}%",
            c * 100.0,
            s * 100.0
        ));
    }
    let share = |map: &BTreeMap<OrgType, usize>, t: OrgType, total: usize| {
        map.get(&t).copied().unwrap_or(0) as f64 / total.max(1) as f64
    };
    r.check(
        "clients in Cable/DSL/ISP (paper 0.60)",
        Some(0.60),
        share(&clients, OrgType::CableDslIsp, ctotal),
    );
    r.check(
        "servers in Content (paper 0.34)",
        Some(0.34),
        share(&servers, OrgType::Content, stotal),
    );
    r.check(
        "clients in Content (paper 0.02)",
        Some(0.02),
        share(&clients, OrgType::Content, ctotal),
    );
    r.check(
        "servers in Cable/DSL/ISP (paper 0.14)",
        Some(0.14),
        share(&servers, OrgType::CableDslIsp, stotal),
    );
    r
}

/// Fig. 18: collateral damage for detected servers during RTBH events.
pub fn f18(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new(
        "f18",
        "Collateral damage during RTBH events (server top ports)",
    );
    let c = &ctx.report.collateral;
    let (all, dropped) = c.packet_cdfs();
    r.line(cdf_row("packets to top ports (all)", &all));
    r.line(cdf_row("packets to top ports (dropped)", &dropped));
    r.line(format!(
        "{} (event, server) records across {} events; {} servers considered",
        c.records.len(),
        c.events_with_collateral(),
        c.servers_considered
    ));
    r.check(
        "events with collateral (paper ~300, scaled)",
        None,
        c.events_with_collateral() as f64,
    );
    r.check(
        "dropped collateral exists (1=yes)",
        Some(1.0),
        f64::from(!dropped.is_empty()),
    );
    r
}

/// Fig. 19: classification of RTBH events by use case.
pub fn f19(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("f19", "Classification of RTBH events by use case");
    let cls = &ctx.report.classification;
    let shares = cls.shares();
    let counts = cls.counts();
    for uc in [
        UseCase::InfrastructureProtection,
        UseCase::SquattingProtection,
        UseCase::Zombie,
        UseCase::Other,
    ] {
        let share = shares.get(&uc).copied().unwrap_or(0.0);
        let count = counts.get(&uc).copied().unwrap_or(0);
        let buckets = cls.duration_buckets(uc);
        r.line(format!(
            "{uc:<28} {count:>5} events ({:>4.1}%) durations <1h:{} 1-6h:{} 6-24h:{} 1-7d:{} >7d:{}",
            share * 100.0,
            buckets[0],
            buckets[1],
            buckets[2],
            buckets[3],
            buckets[4]
        ));
    }
    r.check(
        "infrastructure-protection share (paper ≈0.27)",
        Some(0.27),
        shares
            .get(&UseCase::InfrastructureProtection)
            .copied()
            .unwrap_or(0.0),
    );
    r.check(
        "zombie share (paper ≈0.13)",
        Some(0.13),
        shares.get(&UseCase::Zombie).copied().unwrap_or(0.0),
    );
    let planted_squat = ctx
        .truth
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Squatting))
        .count();
    r.check(
        "squatting prefixes (planted, paper 21 scaled)",
        Some(planted_squat as f64),
        counts
            .get(&UseCase::SquattingProtection)
            .copied()
            .unwrap_or(0) as f64,
    );
    r
}

/// §3.1: drop provenance and corpus hygiene.
pub fn s31(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("s31", "Drop provenance and internal-traffic cleaning");
    let prov = &ctx.report.provenance;
    r.line(format!(
        "{} dropped samples ({} bytes); route server explains {:.1}% of bytes",
        prov.dropped_packets,
        prov.dropped_bytes,
        prov.byte_share() * 100.0
    ));
    r.check(
        "route-server byte share (paper 0.95)",
        Some(0.95),
        prov.byte_share(),
    );
    let clean = ctx.report.clean;
    r.line(format!(
        "cleaning removed {} internal samples of {} ({:.4}%)",
        clean.internal_removed,
        clean.total,
        clean.removed_share() * 100.0
    ));
    r.check(
        "internal share (paper 0.0001)",
        Some(0.0001),
        clean.removed_share(),
    );
    r
}

/// §5.4: during-event visibility and protocol mix.
pub fn s54(ctx: &Context) -> FigureReport {
    let mut r = FigureReport::new("s54", "During-event capture and protocol mix");
    let p = &ctx.report.protocols;
    let mix = p.anomaly_protocol_mix();
    r.line(format!(
        "protocol mix in anomaly events: UDP {:.2}% TCP {:.2}% ICMP {:.2}% other {:.2}%",
        mix[0] * 100.0,
        mix[1] * 100.0,
        mix[2] * 100.0,
        mix[3] * 100.0
    ));
    r.check(
        "events with during-data share (paper 0.29)",
        Some(0.29),
        p.events_with_data_share(),
    );
    r.check(
        "data + preceding-anomaly share (paper 0.18)",
        Some(0.18),
        p.data_and_anomaly_share(),
    );
    r.check(
        "anomaly-but-no-during-data share (paper ~0.33)",
        Some(0.33),
        p.anomaly_but_no_data_share(),
    );
    r.check(
        "UDP share in anomaly events (paper 0.995)",
        Some(0.995),
        mix[0],
    );
    r
}

/// One experiment: its report, computed on a prepared context.
pub type Experiment = fn(&Context) -> FigureReport;

/// Every experiment by id, in the order EXPERIMENTS.md prints them: the
/// one list the `figures` binary builds its usage text from, checks ids
/// against and runs.
pub const FIGURES: [(&str, Experiment); 24] = [
    ("t1", t1),
    ("f2", f2),
    ("f3", f3),
    ("f4", f4),
    ("f5", f5),
    ("f6", f6),
    ("f7", f7),
    ("f8", f8),
    ("f9", f9),
    ("f10", f10),
    ("f11", f11),
    ("f12", f12),
    ("f13", f13),
    ("t2", t2),
    ("t3", t3),
    ("f14", f14),
    ("f15", f15),
    ("f16", f16),
    ("f17", f17),
    ("t4", t4),
    ("f18", f18),
    ("f19", f19),
    ("s31", s31),
    ("s54", s54),
];

/// Every experiment, in [`FIGURES`] order.
pub fn all_figures(ctx: &Context) -> Vec<FigureReport> {
    FIGURES.iter().map(|(_, report)| report(ctx)).collect()
}
