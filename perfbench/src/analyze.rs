//! The `analyze` workload: the corpus file decoded (set-up), then whole
//! `rtbh analyze` jobs, each checked byte for byte against a 1-worker
//! reference; and the traced probe of the analysis layers.

use std::path::Path;
use std::time::Instant;

use rtbh::core::align::{estimate_offset_with_workers, shift_flows_with_workers};
use rtbh::core::clean::clean_flows_with_workers;
use rtbh::core::columns::ColumnarFlows;
use rtbh::core::events::infer_events;
use rtbh::core::index::{MacResolver, OriginTable, SampleIndex};
use rtbh::core::pipeline::{Analyzer, AnalyzerConfig, FullReport};
use rtbh::core::report::render_report;
use rtbh::core::Corpus;
use rtbh::net::TimeDelta;
use rtbh_json::{Json, ToJson};

use crate::corpus;
use crate::record::{Metrics, Outcome};
use crate::sys;
use crate::trace::Tracer;

/// Set-up repetitions per run (the reported `setup_s` is their median).
pub const SETUP_ROUNDS: usize = 15;
/// Jobs per run at least, however short `--seconds` is.
pub const MIN_JOBS: usize = 3;

/// Runs `f`, inside a span when tracing.
pub fn step<R>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// The headline JSON `rtbh analyze --json` writes.
pub fn headline_json(report: &FullReport) -> Vec<u8> {
    rtbh_json::to_vec_pretty(&Json::Obj(vec![
        ("headline".to_string(), report.headline().to_json()),
        (
            "class_shares".to_string(),
            report.preevents.class_shares().to_json(),
        ),
    ]))
}

/// The byte-level result of one job: the full report and the headline
/// file, as JSON.
#[derive(Debug, PartialEq)]
pub struct Answer {
    /// `FullReport` as pretty JSON.
    pub report: Vec<u8>,
    /// The headline file's bytes.
    pub headline: Vec<u8>,
}

/// The reference report: a 1-worker analyzer over the same corpus.
pub fn reference_report(corpus: &Corpus) -> FullReport {
    let config = AnalyzerConfig::for_corpus(corpus).with_workers(1);
    Analyzer::new(corpus.clone(), config).full()
}

impl Answer {
    /// The answer a job producing `report` should give.
    pub fn of(report: &FullReport) -> Answer {
        Answer {
            report: rtbh_json::to_vec_pretty(report),
            headline: headline_json(report),
        }
    }
}

/// One `rtbh analyze` job at the CLI's default worker count: prepare,
/// the stage DAG, the rendered report and the headline file write.
/// Returns the job's wall time (s) and its answer; serializing the full
/// report for the check happens after the clock stops.
pub fn job(corpus: Corpus, out: &Path, mut tracer: Option<&mut Tracer>) -> (f64, Answer) {
    let t0 = Instant::now();
    let config = AnalyzerConfig::for_corpus(&corpus).with_workers(0);
    let analyzer = step(&mut tracer, "job.new", || Analyzer::new(corpus, config));
    let report = step(&mut tracer, "job.full", || analyzer.full());
    let text = step(&mut tracer, "job.render", || {
        render_report(&report, analyzer.corpus())
    });
    let headline = step(&mut tracer, "job.write", || {
        let bytes = headline_json(&report);
        std::fs::write(out, &bytes).map(|_| bytes)
    });
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(text);
    let answer = Answer {
        report: rtbh_json::to_vec_pretty(&report),
        headline: headline.unwrap_or_default(),
    };
    drop(analyzer);
    (secs, answer)
}

/// Checks a job's answer against the reference.
pub fn check(answer: &Answer, reference: &Answer) -> Result<(), String> {
    if answer.headline.is_empty() {
        return Err("analyze: headline file not written".to_string());
    }
    if answer.report != reference.report {
        return Err("analyze: report differs from the 1-worker reference".to_string());
    }
    if answer.headline != reference.headline {
        return Err("analyze: headline differs from the 1-worker reference".to_string());
    }
    Ok(())
}

/// One set-up round: read the corpus file and decode it section by
/// section (timed), then run the product's container decode on the same
/// bytes and check both logs against the generated corpus (untimed).
pub fn setup_round(
    path: &Path,
    generated: &Corpus,
    tracer: Option<&mut Tracer>,
) -> (f64, Result<(), String>) {
    let t0 = Instant::now();
    let decoded = std::fs::read(path)
        .map_err(|e| format!("read corpus: {e}"))
        .map(|raw| {
            let sections = corpus::decode_sections(&raw);
            (raw, sections)
        });
    let secs = t0.elapsed().as_secs_f64();
    let (raw, sections) = match decoded {
        Ok(x) => x,
        Err(e) => return (secs, Err(e)),
    };
    std::hint::black_box(&sections);
    drop(sections);
    let result = match tracer {
        Some(t) => t.span("corpus_io.decode", |_| {
            corpus::product_decode(&raw, generated)
        }),
        None => corpus::product_decode(&raw, generated),
    };
    (secs, result)
}

/// The `analyze` workload's end-to-end run.
pub fn run(generated: &Corpus, seconds: f64, work: &Path) -> (Metrics, Outcome) {
    let mut outcome = Outcome::default();
    let mut metrics = Metrics::default();

    let path = work.join("corpus.rtbh");
    if let Err(e) = corpus::save(generated, &path) {
        outcome.record(Err(e));
    }
    let mut setup = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let (secs, result) = setup_round(&path, generated, None);
        setup.push(secs);
        outcome.record_defect(result);
    }
    let _ = std::fs::remove_file(&path);
    let reference_report = reference_report(generated);
    let reference = Answer::of(&reference_report);
    metrics.value(
        "events.count",
        "count",
        reference_report.headline().total_events as f64,
    );
    drop(reference_report);

    let out = work.join("headline.json");
    let samples = generated.flows.len() as f64;
    let start = Instant::now();
    let (mut job_ms, mut rate, mut peak, mut cpu) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while job_ms.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        let input = generated.clone();
        sys::reset_peak_rss();
        let cpu0 = sys::cpu_secs();
        let (secs, answer) = job(input, &out, None);
        cpu.push(sys::cpu_secs() - cpu0);
        peak.push(sys::peak_rss_mb());
        job_ms.push(secs * 1e3);
        rate.push(samples / secs);
        outcome.record(check(&answer, &reference));
    }

    metrics.median("setup_s", "s", setup);
    metrics.median("latency_p50_ms", "ms", job_ms);
    metrics.median("throughput_per_s", "1/s", rate);
    metrics.median("peak_rss_mb", "MB", peak);
    metrics.median("job_cpu_s", "s", cpu);
    (metrics, outcome)
}

/// The prepare kernels, called one at a time as `Analyzer::new` calls
/// them, at `workers` threads. Span names carry `suffix`.
fn prepare_kernels(
    corpus: &Corpus,
    config: &AnalyzerConfig,
    workers: usize,
    suffix: &str,
    t: &mut Tracer,
) {
    let end = corpus.period.end;
    let name = |k: &str| format!("{k}{suffix}");
    let (cleaned, _) = t.span(&name("clean"), |_| {
        clean_flows_with_workers(corpus, workers)
    });
    let alignment = t.span(&name("align"), |_| {
        estimate_offset_with_workers(
            &corpus.updates,
            &cleaned,
            end,
            config.offset_half_range,
            config.offset_step,
            workers,
        )
    });
    let offset = alignment.map_or(TimeDelta::ZERO, |a| a.estimated_offset());
    let flows = t.span(&name("shift"), |_| {
        shift_flows_with_workers(&cleaned, offset, workers)
    });
    drop(cleaned);
    let events = t.span(&name("events"), |_| {
        infer_events(&corpus.updates, config.merge_delta, end)
    });
    std::hint::black_box(events);
    let resolver = MacResolver::build(corpus);
    let origins = OriginTable::build(&corpus.routes);
    let enriched = t.span(&name("enrich"), |_| {
        ColumnarFlows::build_enriched_with_capacity(
            &corpus.updates,
            &flows,
            &resolver,
            &origins,
            end,
            workers,
            config.chunk_capacity,
        )
    });
    drop(flows);
    let index = t.span(&name("index"), |_| {
        SampleIndex::from_columns(
            enriched.blackholes,
            enriched.blackhole_prefixes,
            &enriched.columns,
            workers,
        )
    });
    std::hint::black_box(index);
}

/// Prepare kernels with a worker-count knob (all but `events`).
pub const PREPARE: [&str; 6] = ["clean", "align", "shift", "events", "enrich", "index"];
/// The ten stage methods, by layer name.
pub const STAGES: [&str; 10] = [
    "load",
    "provenance",
    "visibility",
    "acceptance",
    "preevent",
    "protocols",
    "filtering",
    "hosts",
    "collateral",
    "classify",
];

/// The traced probe of the analysis layers: the prepare kernels one at
/// a time at 1 worker and at nproc workers, `Analyzer::new`, the ten
/// stage methods in dependency order, `Analyzer::full` for the DAG wall
/// time, the report render and the headline write — all inside one
/// `job` span whose self time is the part no layer span covers.
pub fn probe(
    corpus: &Corpus,
    out: &Path,
    reference: Option<&Answer>,
    t: &mut Tracer,
) -> (Metrics, Outcome) {
    let mut outcome = Outcome::default();
    let config = AnalyzerConfig::for_corpus(corpus).with_workers(0);
    let nproc = sys::nproc();
    let input = corpus.clone();
    let (events, pre_samples, stats, answer) = t.span("job", |t| {
        prepare_kernels(corpus, &config, 1, ".1w", t);
        prepare_kernels(corpus, &config, nproc, "", t);
        let analyzer = t.span("analyzer.new", |_| Analyzer::new(input, config));
        let load = t.span("load", |_| analyzer.load());
        let provenance = t.span("provenance", |_| analyzer.provenance());
        let visibility = t.span("visibility", |_| analyzer.visibility());
        let acceptance = t.span("acceptance", |_| analyzer.acceptance());
        let pre = t.span("preevent", |_| analyzer.preevents());
        let protocols = t.span("protocols", |_| analyzer.protocols(&pre));
        let filtering = t.span("filtering", |_| analyzer.filtering(&pre));
        let hosts = t.span("hosts", |_| analyzer.hosts());
        let collateral = t.span("collateral", |_| analyzer.collateral(&hosts));
        let classify = t.span("classify", |_| analyzer.classification(&pre, &protocols));
        let stats = analyzer.columns().chunk_stats();
        std::hint::black_box((
            load, provenance, visibility, acceptance, filtering, collateral, classify,
        ));
        let report = t.span("pipeline.full", |_| analyzer.full());
        let text = t.span("report.render", |_| {
            render_report(&report, analyzer.corpus())
        });
        std::hint::black_box(text);
        let headline = t.span("json.write", |_| {
            let bytes = headline_json(&report);
            std::fs::write(out, &bytes).map(|_| bytes)
        });
        let pre_samples: u64 = pre.per_event.iter().map(|r| r.packets).sum();
        let answer = Answer {
            report: Vec::new(),
            headline: headline.unwrap_or_default(),
        };
        let events = analyzer.events().len();
        let full_json = rtbh_json::to_vec_pretty(&report);
        (
            events,
            pre_samples,
            stats,
            Answer {
                report: full_json,
                ..answer
            },
        )
    });
    if let Some(reference) = reference {
        outcome.record(check(&answer, reference));
    }

    let mut m = Metrics::default();
    let secs = |name: &str| t.secs(name);
    for k in PREPARE {
        m.median(&format!("{k}.s"), "s", secs(k));
        if k != "events" {
            let one =
                crate::record::Summary::of(&secs(&format!("{k}.1w"))).map_or(0.0, |s| s.median);
            let many = crate::record::Summary::of(&secs(k)).map_or(0.0, |s| s.median);
            m.value(&format!("{k}.speedup_2w"), "ratio", ratio(one, many));
        }
    }
    let mut stage_sum = 0.0;
    for k in STAGES {
        let s = secs(k);
        stage_sum += s.iter().sum::<f64>();
        m.median(&format!("{k}.s"), "s", s);
    }
    for k in PREPARE.iter().chain(STAGES.iter()) {
        m.median(&format!("{k}.peak_mb"), "MB", t.peak_mb(k));
    }
    m.value("events.count", "count", events as f64);
    m.value("preevent.samples", "count", pre_samples as f64);
    let full = secs("pipeline.full").iter().sum::<f64>();
    m.value("pipeline.full_s", "s", full);
    m.value("pipeline.stage_sum_s", "s", stage_sum);
    m.value("pipeline.speedup_2w", "ratio", ratio(stage_sum, full));
    m.value(
        "columns.window_queries",
        "count",
        stats.window_queries as f64,
    );
    m.value("columns.chunks_probed", "count", stats.chunks_probed as f64);
    m.value("columns.pruned_ratio", "ratio", stats.pruned_ratio);
    m.median("report.render_s", "s", secs("report.render"));
    m.median("json.write_s", "s", secs("json.write"));
    m.value("json.report_bytes", "bytes", answer.headline.len() as f64);
    let job_total: f64 = secs("job").iter().sum();
    let job_self: f64 = t.self_secs_of("job").iter().sum();
    m.value(
        "trace.job_remainder_share",
        "ratio",
        ratio(job_self, job_total),
    );
    (m, outcome)
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The tracing overhead on this workload: jobs alternately untraced and
/// traced (spans around each call, allocation counting on), as the share
/// by which the traced median exceeds the untraced one.
pub fn overhead(corpus: &Corpus, pairs: usize, out: &Path, t: &mut Tracer) -> f64 {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        crate::trace::set_counting(false);
        plain.push(job(corpus.clone(), out, None).0);
        crate::trace::set_counting(true);
        traced.push(t.span("overhead.job", |t| job(corpus.clone(), out, Some(t)).0));
    }
    overhead_share(&plain, &traced)
}

/// `median(traced) / median(plain) - 1`.
pub fn overhead_share(plain: &[f64], traced: &[f64]) -> f64 {
    let med = |x: &[f64]| crate::record::Summary::of(x).map_or(0.0, |s| s.median);
    ratio(med(traced), med(plain)) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh::bgp::UpdateLog;
    use rtbh::net::Community;

    /// A tiny corpus whose update log carries one announcement with 64
    /// communities: 256 attribute bytes, one more than the one-byte
    /// COMMUNITIES length the wire codec writes can hold.
    fn corpus_with_long_community_list() -> Corpus {
        let mut corpus = rtbh::sim::run(&rtbh::sim::ScenarioConfig::tiny()).corpus;
        let mut updates = corpus.updates.updates().to_vec();
        let first = updates
            .iter()
            .position(|u| !u.communities.is_empty())
            .expect("an update with communities");
        updates[first].communities = (0..64).map(|i| Community::new(64500, i)).collect();
        corpus.updates = UpdateLog::from_updates(updates);
        corpus
    }

    #[test]
    fn a_decode_error_is_counted_and_the_workload_still_measures() {
        let corpus = corpus_with_long_community_list();
        let dir = sys::work_dir("test-analyze", 0).unwrap();
        let (metrics, outcome) = run(&corpus, 0.0, &dir);
        std::fs::remove_dir_all(&dir).unwrap();

        // Every set-up round's decode failed and was counted with the
        // decoder's own message …
        assert_eq!(outcome.defect_checks, SETUP_ROUNDS as u64);
        assert_eq!(outcome.defect_failures(), SETUP_ROUNDS as u64);
        assert_eq!(outcome.defects.len(), 1, "{:?}", outcome.defects);
        assert!(
            outcome.defects[0]
                .0
                .contains("update log: truncated attribute body"),
            "{:?}",
            outcome.defects
        );
        // … and the jobs still ran, matched the reference and were timed.
        assert_eq!((outcome.attempted, outcome.failed), (MIN_JOBS as u64, 0));
        for name in [
            "setup_s",
            "latency_p50_ms",
            "throughput_per_s",
            "peak_rss_mb",
        ] {
            assert!(metrics.get(name).unwrap().value > 0.0, "{name}");
        }
    }
}
