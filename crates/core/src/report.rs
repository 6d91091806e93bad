//! Plain-text rendering of a [`crate::pipeline::FullReport`].
//!
//! One human-readable summary, suitable for terminals, logs and incident
//! tickets; the `rtbh analyze` CLI prints exactly this.

use std::fmt::Write as _;

use crate::classify::UseCase;
use crate::corpus::Corpus;
use crate::pipeline::FullReport;

/// Renders the operator summary of a full analysis. `corpus` supplies the
/// static context and the update log; the sample count is the cleaning
/// report's total, since an [`Analyzer`](crate::Analyzer) keeps no sample
/// log.
pub fn render_report(report: &FullReport, corpus: &Corpus) -> String {
    let mut out = String::new();
    let headline = report.headline();

    let _ = writeln!(out, "== corpus ==");
    let _ = writeln!(
        out,
        "period {} | {} members | {} BGP updates | {} flow samples (1:{})",
        corpus.period,
        corpus.members.len(),
        corpus.updates.len(),
        report.clean.total,
        corpus.sampling_rate
    );
    let _ = writeln!(
        out,
        "cleaning removed {} internal samples ({:.4}%)",
        report.clean.internal_removed,
        report.clean.removed_share() * 100.0
    );
    if let Some(a) = &report.alignment {
        let _ = writeln!(
            out,
            "clock skew {} at {:.2}% overlap over {} dropped samples",
            a.estimated_offset(),
            a.best_overlap() * 100.0,
            a.dropped_samples
        );
    }

    let _ = writeln!(out, "\n== headline (cf. the paper's abstract) ==");
    let _ = writeln!(out, "RTBH events inferred:      {}", headline.total_events);
    let _ = writeln!(
        out,
        "DDoS-correlated (≤10 min): {:.1}%",
        headline.anomaly_share * 100.0
    );
    let _ = writeln!(
        out,
        "/32 drop rate:             {:.1}% pkts / {:.1}% bytes",
        headline.drop_rate_32_packets * 100.0,
        headline.drop_rate_32_bytes * 100.0
    );
    let _ = writeln!(
        out,
        "victims classified:        {} clients vs {} servers",
        headline.client_victims, headline.server_victims
    );
    let _ = writeln!(
        out,
        "fully port-filterable:     {:.1}% of anomaly events",
        headline.fully_filterable_share * 100.0
    );

    let (no_data, no_anomaly, anomaly) = report.preevents.class_shares();
    let _ = writeln!(out, "\n== pre-RTBH traffic classes (Table 2) ==");
    let _ = writeln!(out, "no data:            {:>5.1}%", no_data * 100.0);
    let _ = writeln!(out, "data, no anomaly:   {:>5.1}%", no_anomaly * 100.0);
    let _ = writeln!(out, "data + anomaly:     {:>5.1}%", anomaly * 100.0);

    let _ = writeln!(out, "\n== signaling load (Fig. 3) ==");
    let _ = writeln!(
        out,
        "mean {:.0} / peak {} parallel blackholes; {} messages total; {} announcing peers",
        report.load.mean_active,
        report.load.peak_active,
        report.load.total_messages,
        report.load.announcing_peers
    );
    let _ = writeln!(
        out,
        "route server explains {:.1}% of dropped bytes (rest: bilateral RTBH)",
        report.provenance.byte_share() * 100.0
    );

    let _ = writeln!(out, "\n== use cases (Fig. 19) ==");
    for uc in [
        UseCase::InfrastructureProtection,
        UseCase::SquattingProtection,
        UseCase::Zombie,
        UseCase::Other,
    ] {
        let share = report.use_case_share(uc);
        let count = report
            .classification
            .counts()
            .get(&uc)
            .copied()
            .unwrap_or(0);
        let _ = writeln!(out, "{uc:<28} {count:>6} events ({:>5.1}%)", share * 100.0);
    }

    let (dropping, forwarding, inconsistent) = report.acceptance.source_reaction_buckets(100);
    let _ = writeln!(
        out,
        "\n== top-100 traffic sources vs /32 blackholes (Fig. 7) =="
    );
    let _ = writeln!(
        out,
        "{dropping} drop ≥99% | {forwarding} forward ≥99% | {inconsistent} inconsistent"
    );

    let _ = writeln!(
        out,
        "\ncollateral damage: {} (event, server) records across {} events",
        report.collateral.records.len(),
        report.collateral.events_with_collateral()
    );
    out
}
