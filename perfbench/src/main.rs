//! `rtbh-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analyze|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a self-describing record (host, scenario, workload parameters,
//! every metric with unit, sample count, median and quartiles), then, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! traced run (`--trace 1`). See `perfbench/README.md`.

mod analyze;
mod corpus;
mod loadgen;
mod record;
mod serve;
mod stream;
mod sys;
mod trace;

use std::path::Path;
use std::time::Instant;

use rtbh::core::Corpus;
use rtbh_json::Json;

use record::{Metrics, Outcome};
use trace::Tracer;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["analyze", "stream"];

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [&str; 4] = [
    "setup_s",
    "latency_p50_ms",
    "throughput_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports with `--trace 1`.
pub const PER_LAYER: [&str; 92] = [
    "corpus_io.decode_s",
    "corpus_io.section_decode_s",
    "corpus_io.file_bytes",
    "corpus_io.decode_failures",
    "corpus_io.peak_mb",
    "clean.s",
    "align.s",
    "shift.s",
    "events.s",
    "enrich.s",
    "index.s",
    "clean.speedup_2w",
    "align.speedup_2w",
    "shift.speedup_2w",
    "enrich.speedup_2w",
    "index.speedup_2w",
    "load.s",
    "provenance.s",
    "visibility.s",
    "acceptance.s",
    "preevent.s",
    "protocols.s",
    "filtering.s",
    "hosts.s",
    "collateral.s",
    "classify.s",
    "events.count",
    "preevent.samples",
    "pipeline.full_s",
    "pipeline.stage_sum_s",
    "pipeline.speedup_2w",
    "columns.window_queries",
    "columns.chunks_probed",
    "columns.pruned_ratio",
    "report.render_s",
    "json.write_s",
    "json.report_bytes",
    "clean.peak_mb",
    "align.peak_mb",
    "shift.peak_mb",
    "events.peak_mb",
    "enrich.peak_mb",
    "index.peak_mb",
    "load.peak_mb",
    "provenance.peak_mb",
    "visibility.peak_mb",
    "acceptance.peak_mb",
    "preevent.peak_mb",
    "protocols.peak_mb",
    "filtering.peak_mb",
    "hosts.peak_mb",
    "collateral.peak_mb",
    "classify.peak_mb",
    "stream.interleave_s",
    "stream.push_s",
    "stream.push_batch_p50_us",
    "stream.push_batch_p90_us",
    "stream.pending_max",
    "stream.late_dropped",
    "stream.ring_chunks",
    "stream.verdicts",
    "stream.finish_s",
    "stream.into_analyzer_s",
    "stream.full_s",
    "serve.report.handle_us",
    "serve.report.miss_us",
    "serve.report.reply_bytes",
    "lru.report.hit_ratio",
    "serve.window.handle_us",
    "serve.window.miss_us",
    "serve.window.reply_bytes",
    "lru.window.hit_ratio",
    "serve.prefix.handle_us",
    "serve.prefix.miss_us",
    "serve.prefix.reply_bytes",
    "lru.prefix.hit_ratio",
    "serve.filter.handle_us",
    "serve.filter.miss_us",
    "serve.filter.reply_bytes",
    "lru.filter.hit_ratio",
    "serve.state_s",
    "filter.dict_s",
    "serve.oneshot_wait_ms",
    "serve.transport_us",
    "serve.cpu_share",
    "serve.queries",
    "serve.errors",
    "serve.connections",
    "gen.session_lateness_p99_ms",
    "gen.oneshot_lateness_p90_ms",
    "trace.overhead_share",
    "trace.job_remainder_share",
];

/// Requests the traced serve probe replays in-process.
const PROBE_REQUESTS: usize = 1500;

const USAGE: &str =
    "usage: rtbh-perfbench --workload analyze|stream --seed N --seconds S --trace 0|1";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The end-to-end run of one workload.
fn end_to_end(args: &Args, generated: &Corpus, work: &Path) -> (Metrics, Outcome) {
    match args.workload {
        "analyze" => analyze::run(generated, args.seconds, work),
        _ => stream::run(generated, args.seed, args.seconds),
    }
}

/// The traced run: every layer's public calls in spans on the seed's
/// inputs, then the workload's own tracing overhead.
fn traced(args: &Args, generated: &Corpus, work: &Path, t: &mut Tracer) -> (Metrics, Outcome) {
    let mut m = Metrics::default();
    let mut outcome = Outcome::default();
    let merge = |(pm, po): (Metrics, Outcome), m: &mut Metrics, outcome: &mut Outcome| {
        m.extend(pm);
        outcome.absorb(po);
    };

    // corpus_io: the file write and both decodes.
    let path = work.join("corpus.rtbh");
    let file_bytes = t.span("corpus_io.encode", |_| corpus::save(generated, &path));
    let (section_s, decoded) = analyze::setup_round(&path, generated, Some(t));
    let _ = std::fs::remove_file(&path);
    m.median("corpus_io.decode_s", "s", t.secs("corpus_io.decode"));
    m.value("corpus_io.section_decode_s", "s", section_s);
    m.value(
        "corpus_io.file_bytes",
        "bytes",
        file_bytes.clone().unwrap_or(0) as f64,
    );
    m.value(
        "corpus_io.decode_failures",
        "count",
        u64::from(decoded.is_err()) as f64,
    );
    m.median("corpus_io.peak_mb", "MB", t.peak_mb("corpus_io.decode"));
    outcome.record(file_bytes.map(|_| ()));
    outcome.record_defect(decoded);

    let reference = analyze::reference_report(generated);
    let answer = analyze::Answer::of(&reference);
    let expected = serve::Expected::new(&reference);
    drop(reference);
    merge(
        analyze::probe(generated, &work.join("headline.json"), Some(&answer), t),
        &mut m,
        &mut outcome,
    );
    drop(answer);

    let feed = stream::Feed::new(generated, args.seed);
    let stream_reference = feed.reference(generated);
    merge(
        stream::probe(generated, &feed, &stream_reference, t),
        &mut m,
        &mut outcome,
    );
    drop(stream_reference);

    merge(
        serve::probe(generated, args.seed, PROBE_REQUESTS, &expected, t),
        &mut m,
        &mut outcome,
    );

    let overhead = match args.workload {
        "analyze" => analyze::overhead(generated, 3, &work.join("headline.json"), t),
        _ => stream::overhead(generated, &feed, 2, t),
    };
    m.value("trace.overhead_share", "ratio", overhead);
    (m, outcome)
}

/// The workload's parameters for the record.
fn params_json(workload: &str) -> Json {
    let u = |n: usize| Json::U64(n as u64);
    match workload {
        "analyze" => Json::Obj(vec![
            ("setup_rounds".to_string(), u(analyze::SETUP_ROUNDS)),
            ("min_jobs".to_string(), u(analyze::MIN_JOBS)),
            ("kernel_workers".to_string(), u(sys::nproc())),
        ]),
        _ => Json::Obj(vec![
            ("setup_rounds".to_string(), u(stream::SETUP_ROUNDS)),
            ("min_replays".to_string(), u(stream::MIN_REPLAYS)),
            ("batch_size".to_string(), u(stream::BATCH)),
            (
                "disorder_bound_events".to_string(),
                u(stream::MAX_DISPLACEMENT),
            ),
            ("kernel_workers".to_string(), u(sys::nproc())),
        ]),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtbh-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = match sys::work_dir(args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("rtbh-perfbench: scratch directory: {e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let generated = corpus::generate(args.seed);
    let generation_s = t0.elapsed().as_secs_f64();

    let mut tracer = args.trace.then(Tracer::new);
    let (metrics, outcome) = match &mut tracer {
        Some(t) => traced(&args, &generated, &work, t),
        None => end_to_end(&args, &generated, &work),
    };
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&&str> = names.iter().filter(|n| metrics.get(n).is_none()).collect();

    let mut record = vec![
        (
            "benchmark".to_string(),
            Json::Str("rtbh-perfbench".to_string()),
        ),
        ("workload".to_string(), Json::Str(args.workload.to_string())),
        ("seed".to_string(), Json::U64(args.seed)),
        ("seconds".to_string(), Json::F64(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), sys::host_json()),
        (
            "scenario".to_string(),
            corpus::scenario_json(&corpus::scenario(args.seed), &generated),
        ),
        ("params".to_string(), params_json(args.workload)),
        ("generation_s".to_string(), Json::F64(generation_s)),
        ("outcome".to_string(), record::outcome_json(&outcome)),
        ("metrics".to_string(), record::metrics_json(&metrics)),
    ];
    if let Some(t) = &tracer {
        let file = work.with_file_name(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::write(&file, t.to_jsonl()).is_ok();
        record.push((
            "trace_file".to_string(),
            if written {
                Json::Str(file.display().to_string())
            } else {
                Json::Null
            },
        ));
        record.push(("self_time_s".to_string(), self_times_json(t)));
        record.push((
            "serve_probe".to_string(),
            serve::probe_params_json(PROBE_REQUESTS),
        ));
    }
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", rtbh_json::to_string_pretty(&Json::Obj(record)));
    if !missing.is_empty() {
        eprintln!("rtbh-perfbench: metrics not measured: {missing:?}");
        std::process::exit(1);
    }
    println!("{}", record::result_line(&outcome, &metrics, names));
}

/// Total self time per span name, largest first.
fn self_times_json(t: &Tracer) -> Json {
    let mut totals: Vec<(String, f64)> = t.self_totals().into_iter().collect();
    totals.sort_by(|a, b| b.1.total_cmp(&a.1));
    Json::Obj(totals.into_iter().map(|(k, v)| (k, Json::F64(v))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(key: &str) -> Vec<String> {
        let doc: Json = rtbh_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        doc.field(key)
            .expect_arr(key)
            .unwrap()
            .iter()
            .map(|e| e.field("name").as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn reported_metrics_are_the_declared_ones() {
        assert_eq!(declared("workloads"), WORKLOADS);
        assert_eq!(declared("end_to_end"), END_TO_END);
        assert_eq!(declared("per_layer"), PER_LAYER);
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload stream --seed 7 --seconds 20 --trace 1"),
            Ok(Args {
                workload: "stream",
                seed: 7,
                seconds: 20.0,
                trace: true,
            })
        );
        for bad in [
            "--workload serve --seed 1 --seconds 1 --trace 0",
            "--workload stream --seed x --seconds 1 --trace 0",
            "--workload stream --seed 1 --seconds 0 --trace 0",
            "--workload stream --seed 1 --seconds 1 --trace 2",
            "--workload stream --seed 1 --seconds 1",
            "--workload stream --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
