//! The `rtbh` command-line tool: generate, inspect and analyze corpora.
//!
//! ```text
//! rtbh simulate [--tiny | --paper | --scale F] [--seed N] <out.rtbh>
//! rtbh info    <corpus.rtbh>
//! rtbh analyze <corpus.rtbh> [--json <out.json>] [--timings] [--threads N]
//! rtbh stream  <corpus.rtbh> [--batch N] [--lateness-ms N] [--retention-ms N]
//!              [--journal <out.jsonl>] [--verify] [--json <out.json>] [--threads N]
//! rtbh query   <addr> <ping|info|stats|shutdown>
//! rtbh query   <addr> report [section]
//! rtbh query   <addr> window <start_ms> <end_ms>
//! rtbh query   <addr> prefix <cidr> [<start_ms> <end_ms>]
//! rtbh query   <addr> filter [--window <start_ms> <end_ms>] [--prefix <cidr>] [PRED...]
//! ```
//!
//! `simulate` writes the corpus in the binary container format (JSON
//! metadata + MRT update log + IPFIX-lite flows) and the ground truth as
//! JSON next to it; `analyze` runs the full paper pipeline on a corpus file
//! and prints the headline findings. `--threads N` sets the worker count
//! (`0` = one per core, the default): prepare's sample kernels (clean with
//! the clock-offset votes, enrichment with the clock shift, index build)
//! shard over N threads, and above one worker the analysis stages run as
//! five chains on `min(N, 5)` threads, each stage single-threaded, so
//! `--threads 1` runs the whole analysis on one thread. The report is byte-identical for every N. With
//! `--timings` it additionally prints the per-stage wall-time table
//! (the corpus load and the preparation kernels included) with the
//! schedule that ran (`sequential` or `parallel`), the job's end-to-end
//! wall clock and the sealed-chunk statistics (see the README's
//! "Performance" section).
//! `stream` replays the corpus through the event-driven analyzer
//! (`rtbh_core::stream`): the two logs are interleaved into one
//! timestamp-ordered feed, pushed in `--batch`-sized groups through the
//! watermarked reorder buffer, and finalized into the same `FullReport`
//! the batch pipeline produces. `--verify` additionally runs the batch
//! pipeline and exits 1 unless the two reports are byte-identical;
//! `--journal` writes the live verdict journal as JSONL. `--lateness-ms`
//! and `--retention-ms` are non-negative durations, `--batch` and
//! `--threads` counts (a `--batch` of 0 feeds one event per batch); any
//! other value exits 2 with the usage text.
//! `query` is the client for a running `rtbhd` daemon: it sends one
//! request over the length-prefixed binary protocol and prints the JSON
//! reply (exit 1 on an error reply or a dead server). `filter` takes up
//! to 16 `column op value` conjuncts — e.g. `dst_port=53 protocol=17
//! 'packet_len>=700' fragment=1` over the columns
//! `src_port|dst_port|protocol|packet_len` (ops `= != < <= > >=`) and
//! flags `fragment|dropped|active` (`=0/1`) — evaluated server-side by
//! the predicate-pushdown mask kernels (quote predicates containing
//! `<`/`>` to keep the shell off them).

use std::path::PathBuf;
use std::time::Instant;

use rtbh::core::profile::StageStats;
use rtbh::core::Analyzer;
use rtbh::sim::ScenarioConfig;
use rtbh_json::ToJson;

fn usage() -> ! {
    eprintln!(
        "usage:\n  rtbh simulate [--tiny|--paper|--scale F] [--seed N] <out.rtbh>\n  \
         rtbh info <corpus.rtbh>\n  rtbh analyze <corpus.rtbh> [--json <out.json>] [--timings] [--threads N]\n  \
         rtbh stream <corpus.rtbh> [--batch N] [--lateness-ms N] [--retention-ms N] [--journal <out.jsonl>] [--verify] [--json <out.json>] [--threads N]\n  \
         rtbh query <addr> <ping|info|stats|shutdown>\n  \
         rtbh query <addr> report [section]\n  \
         rtbh query <addr> window <start_ms> <end_ms>\n  \
         rtbh query <addr> prefix <cidr> [<start_ms> <end_ms>]\n  \
         rtbh query <addr> filter [--window <start_ms> <end_ms>] [--prefix <cidr>] [PRED...]\n    \
         PRED := <src_port|dst_port|protocol|packet_len><=|!=|<|<=|>|>=><value>\n           \
         | <fragment|dropped|active>=<0|1>   (up to 16, ANDed)"
    );
    std::process::exit(2);
}

/// The value of a flag parsed as `T`; a missing or unparsable value exits
/// 2 with the usage text.
fn flag_value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
    it.next()
        .unwrap_or_else(|| usage())
        .parse()
        .unwrap_or_else(|_| usage())
}

/// A millisecond duration flag: a negative value exits 2 with the usage
/// text (a negative lateness would hold the watermark ahead of the newest
/// event and drop in-order events as late).
fn duration_ms(it: &mut impl Iterator<Item = String>) -> i64 {
    let ms: i64 = flag_value(it);
    if ms < 0 {
        usage();
    }
    ms
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("simulate") => simulate(args.collect()),
        Some("info") => info(args.collect()),
        Some("analyze") => analyze(args.collect()),
        Some("stream") => stream(args.collect()),
        Some("query") => query(args.collect()),
        _ => usage(),
    }
}

fn simulate(args: Vec<String>) {
    let mut config = ScenarioConfig::tiny();
    let mut out: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tiny" => config = ScenarioConfig::tiny(),
            "--paper" => config = ScenarioConfig::paper(),
            "--scale" => {
                config = ScenarioConfig::try_scaled(flag_value(&mut it)).unwrap_or_else(|| usage())
            }
            "--seed" => {
                config.seed = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            path if !path.starts_with('-') => out = Some(PathBuf::from(path)),
            _ => usage(),
        }
    }
    let out = out.unwrap_or_else(|| usage());
    eprintln!(
        "simulating {} days, {} members, {} events (seed {:#x})...",
        config.days,
        config.members,
        config.total_events(),
        config.seed
    );
    let result = rtbh::sim::run(&config);
    rtbh::corpus_io::save(&result.corpus, &out).expect("write corpus");
    let truth_path = out.with_extension("truth.json");
    std::fs::write(&truth_path, rtbh_json::to_vec_pretty(&result.truth)).expect("write truth");
    eprintln!(
        "wrote {} ({} updates, {} samples) and {}",
        out.display(),
        result.corpus.updates.len(),
        result.corpus.flows.len(),
        truth_path.display()
    );
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn load(path: &str) -> rtbh::core::Corpus {
    rtbh::corpus_io::load(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("failed to load {path}: {e}");
        // Exit 2 (usage/input error), distinct from 1 (analysis failure), so
        // scripts can tell a corrupt corpus from a crashed pipeline.
        std::process::exit(2);
    })
}

fn info(args: Vec<String>) {
    let Some(path) = args.first() else { usage() };
    let corpus = load(path);
    println!("period:         {}", corpus.period);
    println!("sampling:       1:{}", corpus.sampling_rate);
    println!("route server:   {}", corpus.route_server_asn);
    println!("members:        {}", corpus.members.len());
    println!(
        "BGP updates:    {} ({} blackhole announcements)",
        corpus.updates.len(),
        corpus
            .updates
            .blackholes()
            .filter(|u| u.is_announce())
            .count()
    );
    println!(
        "flow samples:   {} ({} dropped)",
        corpus.flows.len(),
        corpus.flows.dropped().count()
    );
    println!("route table:    {} prefixes", corpus.routes.len());
    println!("digest:         {:#018x}", corpus.digest());
}

fn stream(args: Vec<String>) {
    use rtbh::core::stream::{render_journal, Retention, StreamConfig, StreamDriver};

    let mut path: Option<String> = None;
    let mut batch: usize = 4096;
    let mut lateness_ms: i64 = 0;
    let mut retention_ms: Option<i64> = None;
    let mut journal_out: Option<String> = None;
    let mut verify = false;
    let mut json_out: Option<String> = None;
    let mut threads: usize = 0;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--batch" => batch = flag_value(&mut it),
            "--lateness-ms" => lateness_ms = duration_ms(&mut it),
            "--retention-ms" => retention_ms = Some(duration_ms(&mut it)),
            "--journal" => journal_out = Some(it.next().unwrap_or_else(|| usage())),
            "--verify" => verify = true,
            "--json" => json_out = Some(it.next().unwrap_or_else(|| usage())),
            "--threads" => threads = flag_value(&mut it),
            p if !p.starts_with('-') => path = Some(p.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let corpus = load(&path);
    let config = StreamConfig {
        analyzer: rtbh::core::pipeline::AnalyzerConfig::for_corpus(&corpus).with_workers(threads),
        lateness: rtbh_net::TimeDelta::millis(lateness_ms),
        retention: match retention_ms {
            Some(ms) => Retention::Window(rtbh_net::TimeDelta::millis(ms)),
            None => Retention::Unbounded,
        },
    };
    let run = StreamDriver::new(batch).replay(&corpus, config);
    print!(
        "{}",
        rtbh::core::report::render_report(&run.report, run.analyzer.corpus())
    );
    println!();
    let ingest_ns = run
        .profile
        .prepare
        .iter()
        .find(|s| s.stage == "ingest")
        .map_or(0, |s| s.wall_ns);
    if ingest_ns > 0 {
        println!(
            "stream: {} events ingested at {:.2} Mevents/s ({} verdicts journaled, {} late-dropped)",
            run.events_fed,
            run.events_fed as f64 / (ingest_ns as f64 / 1e9) / 1e6,
            run.status.verdicts,
            run.status.late_dropped
        );
    }
    println!(
        "ring: {} sealed chunks, {} rows retained, {} chunks / {} rows evicted",
        run.status.ring_chunks,
        run.status.ring_rows,
        run.status.ring_evicted_chunks,
        run.status.ring_evicted_rows
    );
    if verify {
        let batch_report = Analyzer::new(corpus, config.analyzer).full();
        if rtbh_json::to_vec_pretty(&run.report) == rtbh_json::to_vec_pretty(&batch_report) {
            println!("verify: stream report byte-identical to batch");
        } else {
            eprintln!("verify FAILED: stream report differs from batch");
            std::process::exit(1);
        }
    }
    if let Some(out) = journal_out {
        std::fs::write(&out, render_journal(&run.journal)).expect("write journal");
        eprintln!("wrote {out} ({} verdicts)", run.journal.len());
    }
    if let Some(out) = json_out {
        let payload = rtbh_json::Json::Obj(vec![
            ("corpus".to_string(), path.to_json()),
            ("events_fed".to_string(), run.events_fed.to_json()),
            ("status".to_string(), run.status.to_json()),
            ("profile".to_string(), run.profile.to_json()),
            ("headline".to_string(), run.report.headline().to_json()),
        ]);
        std::fs::write(&out, rtbh_json::to_vec_pretty(&payload)).expect("write json");
        eprintln!("wrote {out}");
    }
}

fn query(args: Vec<String>) {
    use rtbh::core::serve::{Client, Request, Response, Section};

    let mut it = args.into_iter();
    let Some(addr) = it.next() else { usage() };
    let Some(verb) = it.next() else { usage() };
    let parse_ms = |s: Option<String>| -> i64 {
        s.unwrap_or_else(|| usage())
            .parse()
            .unwrap_or_else(|_| usage())
    };
    let request = match verb.as_str() {
        "ping" => Request::Ping,
        "info" => Request::Info,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "report" => {
            let section = match it.next() {
                None => Section::Full,
                Some(name) => Section::from_name(&name).unwrap_or_else(|| {
                    eprintln!(
                        "unknown section {name:?}; one of: {}",
                        Section::ALL.map(Section::name).join(", ")
                    );
                    std::process::exit(2);
                }),
            };
            Request::Report(section)
        }
        "window" => Request::Window {
            start_ms: parse_ms(it.next()),
            end_ms: parse_ms(it.next()),
        },
        "prefix" => {
            let prefix = it
                .next()
                .unwrap_or_else(|| usage())
                .parse()
                .unwrap_or_else(|_| usage());
            let (start_ms, end_ms) = match it.next() {
                // No window: slice over all of (virtual) time.
                None => (i64::MIN, i64::MAX),
                Some(s) => (s.parse().unwrap_or_else(|_| usage()), parse_ms(it.next())),
            };
            Request::Prefix {
                prefix,
                start_ms,
                end_ms,
            }
        }
        "filter" => {
            use rtbh::core::filter::{FilterQuery, Predicate, MAX_PREDICATES};
            let mut query = FilterQuery::matching(Vec::new());
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--window" => {
                        query.start_ms = parse_ms(it.next());
                        query.end_ms = parse_ms(it.next());
                    }
                    "--prefix" => {
                        query.prefix =
                            Some(it.next().unwrap_or_else(|| usage()).parse().unwrap_or_else(
                                |_| {
                                    eprintln!("--prefix takes an IPv4 CIDR like 203.0.113.0/24");
                                    std::process::exit(2);
                                },
                            ));
                    }
                    text => {
                        let Some(pred) = Predicate::parse(text) else {
                            eprintln!(
                                "bad predicate {text:?}; expected column op value, e.g. \
                                 dst_port=53, protocol=17, 'packet_len>=700', fragment=1"
                            );
                            std::process::exit(2);
                        };
                        query.predicates.push(pred);
                    }
                }
            }
            if query.predicates.len() > MAX_PREDICATES {
                eprintln!(
                    "{} predicates exceed the limit of {MAX_PREDICATES}",
                    query.predicates.len()
                );
                std::process::exit(2);
            }
            Request::Filter(query)
        }
        _ => usage(),
    };
    if it.next().is_some() {
        usage();
    }
    let mut client = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("failed to connect to {addr}: {e}");
        std::process::exit(1);
    });
    match client.request(&request) {
        Ok(Response::Ok(body)) => {
            let mut out = std::io::stdout().lock();
            use std::io::Write as _;
            // A closed pipe (`rtbh query … | head`) is a normal way for
            // the reader to stop consuming, not an error.
            if let Err(e) = out.write_all(&body).and_then(|()| out.write_all(b"\n")) {
                if e.kind() == std::io::ErrorKind::BrokenPipe {
                    std::process::exit(0);
                }
                eprintln!("write stdout: {e}");
                std::process::exit(1);
            }
        }
        Ok(Response::Err { code, message }) => {
            eprintln!("server error {code}: {message}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("query failed: {e}");
            std::process::exit(1);
        }
    }
}

fn analyze(args: Vec<String>) {
    let mut path: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut timings = false;
    let mut threads: usize = 0;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_out = Some(it.next().unwrap_or_else(|| usage())),
            "--timings" => timings = true,
            "--threads" => threads = flag_value(&mut it),
            p if !p.starts_with('-') => path = Some(p.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let job = Instant::now();
    let corpus = load(&path);
    let loaded = StageStats {
        stage: "corpus".to_string(),
        wall_ns: nanos_since(job),
        workers: 1,
        updates_scanned: corpus.updates.len() as u64,
        samples_scanned: corpus.flows.len() as u64,
        events_touched: 0,
    };
    let config = rtbh::core::pipeline::AnalyzerConfig::for_corpus(&corpus).with_workers(threads);
    let analyzer = Analyzer::new(corpus, config);
    let (report, profile) = analyzer.full_with_profile();
    let headline = report.headline();
    let render = Instant::now();
    let text = rtbh::core::report::render_report(&report, analyzer.corpus());
    let (render_ns, end_to_end_ns) = (nanos_since(render), nanos_since(job));
    print!("{text}");
    if timings {
        println!();
        print!("{}", profile.render_job(&loaded, render_ns, end_to_end_ns));
        // Sealed-chunk shape and window-query behaviour: the counters
        // accumulated over every stage's window queries during the run.
        let cs = analyzer.columns().chunk_stats();
        let enrich_ns = profile
            .prepare
            .iter()
            .find(|s| s.stage == "enrich")
            .map_or(0, |s| s.wall_ns);
        println!(
            "chunks: {} x {} rows ({} samples, {:.1}% fill)",
            cs.chunks,
            cs.capacity,
            cs.samples,
            cs.fill * 100.0
        );
        if enrich_ns > 0 {
            println!(
                "prepare:enrich sealed {:.2} Msamples/s",
                cs.samples as f64 / (enrich_ns as f64 / 1e9) / 1e6
            );
        }
        println!(
            "window queries: {} ({} chunk probes, {:.1}% of chunk visits pruned)",
            cs.window_queries,
            cs.chunks_probed,
            cs.pruned_ratio * 100.0
        );
    }
    if let Some(out) = json_out {
        struct JsonOut {
            headline: rtbh::core::pipeline::Headline,
            class_shares: (f64, f64, f64),
        }
        rtbh_json::impl_json! { serialize struct JsonOut { headline, class_shares } }
        let payload = JsonOut {
            headline,
            class_shares: report.preevents.class_shares(),
        };
        std::fs::write(&out, rtbh_json::to_vec_pretty(&payload)).expect("write json");
        eprintln!("wrote {out}");
    }
}
