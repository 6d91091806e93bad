//! Emits `BENCH_pipeline.json` (`Analyzer::full` stage timings of a
//! 1-worker analyzer, whose stages run inline, vs an all-cores one, whose
//! stage chains run on scoped threads), `BENCH_index.json` (trie vs
//! frozen-LPM lookups) and `BENCH_flows.json` (AoS vs columnar vs
//! columnar+enriched stage-kernel scans) on one simulated corpus.
//!
//! ```text
//! pipeline_bench [--tiny | --scale F | --paper] [--seed N] [--reps N]
//!                [--out PATH] [--index-out PATH] [--no-index]
//!                [--flows-out PATH] [--no-flows] [--flows-floor F]
//!                [--filters] [--filters-out PATH] [--filters-floor F]
//!                [--serve] [--serve-out PATH] [--serve-floor QPS]
//!                [--stream] [--stream-out PATH] [--stream-floor EPS]
//! ```
//!
//! Defaults: `--scale 0.25 --reps 3 --out BENCH_pipeline.json --index-out
//! BENCH_index.json --flows-out BENCH_flows.json`. Prints the stage
//! tables, speedups and the micro-bench summaries to stdout, and exits 1
//! if the 1-worker and all-cores reports are not byte-identical; the JSON
//! files carry the full machine-readable records (see
//! `rtbh_bench::pipeline`, `rtbh_bench::lpm` and `rtbh_bench::flows`).
//!
//! `--flows-floor F` is the CI performance gate: after the answers are
//! cross-checked, the process exits 1 if the enriched-kernel speedup vs
//! the AoS baseline falls below `F`.
//!
//! `--filters` runs the predicate-pushdown bench (`rtbh_bench::filters`):
//! a representative query set evaluated by the naive rowwise walk, the
//! autovectorized selection-mask kernels, and the masked+chunk-pruned
//! kernels, each on one thread, answers byte-checked against the
//! naive reference before timing, written to `BENCH_filters.json`
//! (`--filters-out`). `--filters-floor F` exits 1 if the masked-kernel
//! speedup vs naive at one worker falls below `F`; divergence from the
//! naive answers always exits 1.
//!
//! `--serve` additionally runs the `rtbhd` load bench
//! (`rtbh_bench::serve`): an in-process daemon driven by 1/2/all-cores
//! concurrent clients, every response cross-checked byte-for-byte against
//! the batch report before timing, with queries/sec + p50/p99 written to
//! `BENCH_serve.json` (`--serve-out`). `--serve-floor QPS` exits 1 if any
//! concurrency level's throughput falls below the floor, and divergence
//! from the batch answers always exits 1.
//!
//! `--stream` runs the streaming-ingest bench (`rtbh_bench::stream`): the
//! corpus replayed through `rtbh_core::stream` at 1/2/all-cores finalizer
//! workers, every finalized report cross-checked byte-for-byte against the
//! batch `FullReport` before the numbers count, with events/sec written to
//! `BENCH_stream.json` (`--stream-out`). `--stream-floor EPS` exits 1 if
//! any level's ingest throughput falls below the floor; divergence from
//! the batch report always exits 1.

use std::io::Write;

use rtbh_bench::{bench_flows, bench_index, bench_pipeline};
use rtbh_sim::ScenarioConfig;

fn usage() -> ! {
    eprintln!(
        "usage: pipeline_bench [--tiny | --scale F | --paper] [--seed N] [--reps N] \
         [--out PATH] [--index-out PATH] [--no-index] [--flows-out PATH] [--no-flows] \
         [--flows-floor F] [--filters] [--filters-out PATH] [--filters-floor F] \
         [--serve] [--serve-out PATH] [--serve-floor QPS] \
         [--stream] [--stream-out PATH] [--stream-floor EPS]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ScenarioConfig::scaled(0.25);
    let mut reps: usize = 3;
    let mut out_path = String::from("BENCH_pipeline.json");
    let mut index_out_path = Some(String::from("BENCH_index.json"));
    let mut flows_out_path = Some(String::from("BENCH_flows.json"));
    let mut flows_floor: Option<f64> = None;
    let mut filters_out_path: Option<String> = None;
    let mut filters_floor: Option<f64> = None;
    let mut serve_out_path: Option<String> = None;
    let mut serve_floor: Option<f64> = None;
    let mut stream_out_path: Option<String> = None;
    let mut stream_floor: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tiny" => config = ScenarioConfig::tiny(),
            "--paper" => config = ScenarioConfig::paper(),
            "--scale" => {
                let f: f64 = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
                config = ScenarioConfig::scaled(f);
            }
            "--seed" => {
                config.seed = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--reps" => {
                reps = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            "--index-out" => index_out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--no-index" => index_out_path = None,
            "--flows-out" => flows_out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--no-flows" => flows_out_path = None,
            "--flows-floor" => {
                flows_floor = Some(
                    args.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--filters" => {
                filters_out_path.get_or_insert_with(|| String::from("BENCH_filters.json"));
            }
            "--filters-out" => filters_out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--filters-floor" => {
                filters_floor = Some(
                    args.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--serve" => {
                serve_out_path.get_or_insert_with(|| String::from("BENCH_serve.json"));
            }
            "--serve-out" => serve_out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--serve-floor" => {
                serve_floor = Some(
                    args.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--stream" => {
                stream_out_path.get_or_insert_with(|| String::from("BENCH_stream.json"));
            }
            "--stream-out" => stream_out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--stream-floor" => {
                stream_floor = Some(
                    args.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    eprintln!(
        "simulating {} days, {} members (seed {:#x}), then timing {} rep(s) per analyzer ...",
        config.days, config.members, config.seed, reps
    );
    let bench = bench_pipeline(config.clone(), reps);

    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "corpus: {} updates, {} samples, {} events\n",
        bench.updates, bench.samples, bench.events
    )
    .expect("write stdout");
    writeln!(
        stdout,
        "1 worker (best of {}):\n{}",
        bench.reps,
        bench.sequential.render()
    )
    .expect("write stdout");
    writeln!(
        stdout,
        "all cores (best of {}):\n{}",
        bench.reps,
        bench.parallel.render()
    )
    .expect("write stdout");
    writeln!(
        stdout,
        "speedup: {:.2}x   reports identical: {}",
        bench.speedup, bench.reports_identical
    )
    .expect("write stdout");

    std::fs::write(&out_path, rtbh_json::to_vec_pretty(&bench)).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");

    let index_ok = match &index_out_path {
        None => true,
        Some(path) => {
            eprintln!("\nindex micro-bench ({reps} rep(s) per structure) ...");
            let idx = bench_index(config.clone(), reps);
            writeln!(
                stdout,
                "\nLPM lookups over {} samples ({} prefixes, {} stride-8 tables):",
                idx.samples, idx.prefixes, idx.frozen_tables
            )
            .expect("write stdout");
            for t in [&idx.trie, &idx.frozen] {
                writeln!(
                    stdout,
                    "  {:<8} {:>10.1} ns/lookup  ({} lookups)",
                    t.structure, t.ns_per_lookup, t.lookups
                )
                .expect("write stdout");
            }
            writeln!(
                stdout,
                "  frozen speedup: {:.2}x   answers identical: {}",
                idx.lookup_speedup, idx.lookups_identical
            )
            .expect("write stdout");
            std::fs::write(path, rtbh_json::to_vec_pretty(&idx)).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
            idx.lookups_identical
        }
    };

    let mut flows_speedup: Option<f64> = None;
    let flows_ok = match &flows_out_path {
        None => true,
        Some(path) => {
            eprintln!("\nflow-store micro-bench ({reps} rep(s) per variant) ...");
            let fb = bench_flows(config.clone(), reps);
            writeln!(
                stdout,
                "\nflow-store kernel scans over {} samples ({} dropped, enrich {:.2} ms once):",
                fb.samples,
                fb.dropped,
                fb.enrich_wall_ns as f64 / 1e6
            )
            .expect("write stdout");
            for t in &fb.timings {
                writeln!(
                    stdout,
                    "  {:<9} {:>3} worker(s): {:>8.2} ms  {:>12.0} samples/s  {:.2}x vs aos",
                    t.variant,
                    t.workers,
                    t.best_wall_ns as f64 / 1e6,
                    t.samples_per_sec,
                    t.speedup_vs_aos
                )
                .expect("write stdout");
            }
            for m in [&fb.bitset, &fb.gallop] {
                writeln!(
                    stdout,
                    "  {:<18} vs {:<18}: {:>8.3} ms vs {:>8.3} ms  {:.2}x",
                    m.kernel,
                    m.baseline,
                    m.kernel_wall_ns as f64 / 1e6,
                    m.baseline_wall_ns as f64 / 1e6,
                    m.speedup
                )
                .expect("write stdout");
            }
            writeln!(
                stdout,
                "  enriched speedup vs aos (1 worker): {:.2}x   answers identical: {}",
                fb.enriched_speedup, fb.answers_identical
            )
            .expect("write stdout");
            std::fs::write(path, rtbh_json::to_vec_pretty(&fb)).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
            flows_speedup = Some(fb.enriched_speedup);
            fb.answers_identical
        }
    };

    let mut filters_speedup: Option<f64> = None;
    let filters_ok = match &filters_out_path {
        None => true,
        Some(path) => {
            eprintln!("\npredicate-pushdown bench ({reps} rep(s) per variant) ...");
            let pb = rtbh_bench::bench_filters(config.clone(), reps);
            writeln!(
                stdout,
                "\nfilter kernels: {} queries over {} samples:",
                pb.queries.len(),
                pb.samples
            )
            .expect("write stdout");
            for t in &pb.timings {
                writeln!(
                    stdout,
                    "  {:<13} {:>3} worker(s): {:>8.2} ms  {:>12.0} rows/s  {:.2}x vs naive",
                    t.variant,
                    t.workers,
                    t.best_wall_ns as f64 / 1e6,
                    t.rows_per_sec,
                    t.speedup_vs_naive
                )
                .expect("write stdout");
            }
            writeln!(
                stdout,
                "  masked speedup vs naive (1 worker): {:.2}x  (pruned: {:.2}x)  \
                 answers identical: {}",
                pb.masked_speedup, pb.pruned_speedup, pb.answers_identical
            )
            .expect("write stdout");
            std::fs::write(path, rtbh_json::to_vec_pretty(&pb)).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
            filters_speedup = Some(pb.masked_speedup);
            pb.answers_identical
        }
    };

    let mut serve_qps_min: Option<f64> = None;
    let serve_ok = match &serve_out_path {
        None => true,
        Some(path) => {
            eprintln!("\nrtbhd load bench ({reps} rep(s) per concurrency level) ...");
            let sb = rtbh_bench::bench_serve(config.clone(), reps);
            writeln!(
                stdout,
                "\nrtbhd: {} distinct queries over {} samples \
                 ({} server workers, cache hit ratio {:.2}):",
                sb.distinct_queries, sb.samples, sb.server_workers, sb.cache_hit_ratio
            )
            .expect("write stdout");
            for l in &sb.levels {
                writeln!(
                    stdout,
                    "  {:>3} client(s): {:>10.0} q/s  p50 {:>9.1} us  p99 {:>9.1} us  \
                     ({} requests)",
                    l.clients,
                    l.queries_per_sec,
                    l.p50_ns as f64 / 1e3,
                    l.p99_ns as f64 / 1e3,
                    l.requests
                )
                .expect("write stdout");
            }
            writeln!(
                stdout,
                "  answers identical to batch report: {}",
                sb.answers_identical
            )
            .expect("write stdout");
            std::fs::write(path, rtbh_json::to_vec_pretty(&sb)).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
            serve_qps_min = sb
                .levels
                .iter()
                .map(|l| l.queries_per_sec)
                .min_by(|a, b| a.total_cmp(b));
            sb.answers_identical
        }
    };

    let mut stream_eps_min: Option<f64> = None;
    let stream_ok = match &stream_out_path {
        None => true,
        Some(path) => {
            eprintln!("\nstreaming-ingest bench ({reps} rep(s) per worker level) ...");
            let tb = rtbh_bench::bench_stream(config, reps);
            writeln!(
                stdout,
                "\nstream: {} events ({} updates + {} samples), batch size {}, \
                 {} live verdicts per replay:",
                tb.updates + tb.samples,
                tb.updates,
                tb.samples,
                tb.batch_size,
                tb.verdicts
            )
            .expect("write stdout");
            for l in &tb.levels {
                writeln!(
                    stdout,
                    "  {:>3} worker(s): {:>12.0} events/s ingest  \
                     (finalize {:>8.2} ms, report identical: {})",
                    l.workers,
                    l.events_per_sec,
                    l.finalize_ns as f64 / 1e6,
                    l.report_identical
                )
                .expect("write stdout");
            }
            writeln!(
                stdout,
                "  finalized reports identical to batch: {}",
                tb.answers_identical
            )
            .expect("write stdout");
            std::fs::write(path, rtbh_json::to_vec_pretty(&tb)).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
            stream_eps_min = Some(tb.min_events_per_sec);
            tb.answers_identical
        }
    };

    if !bench.reports_identical {
        eprintln!("ERROR: 1-worker and all-cores reports diverged");
        std::process::exit(1);
    }
    if !index_ok {
        eprintln!("ERROR: trie and frozen LPM answers diverged");
        std::process::exit(1);
    }
    if !flows_ok {
        eprintln!("ERROR: flow-store kernel variants diverged");
        std::process::exit(1);
    }
    if let (Some(floor), Some(speedup)) = (flows_floor, flows_speedup) {
        if speedup < floor {
            eprintln!(
                "ERROR: enriched-kernel speedup {speedup:.2}x regressed below the \
                 {floor:.2}x floor"
            );
            std::process::exit(1);
        }
        eprintln!("enriched-kernel speedup {speedup:.2}x >= {floor:.2}x floor: ok");
    }
    if !filters_ok {
        eprintln!("ERROR: filter kernel answers diverged from the naive reference");
        std::process::exit(1);
    }
    if let (Some(floor), Some(speedup)) = (filters_floor, filters_speedup) {
        if speedup < floor {
            eprintln!(
                "ERROR: masked-filter speedup {speedup:.2}x regressed below the \
                 {floor:.2}x floor"
            );
            std::process::exit(1);
        }
        eprintln!("masked-filter speedup {speedup:.2}x >= {floor:.2}x floor: ok");
    }
    if !serve_ok {
        eprintln!("ERROR: rtbhd responses diverged from the batch report");
        std::process::exit(1);
    }
    if let (Some(floor), Some(qps)) = (serve_floor, serve_qps_min) {
        if qps < floor {
            eprintln!(
                "ERROR: rtbhd throughput {qps:.0} q/s regressed below the {floor:.0} q/s floor"
            );
            std::process::exit(1);
        }
        eprintln!("rtbhd throughput {qps:.0} q/s >= {floor:.0} q/s floor: ok");
    }
    if !stream_ok {
        eprintln!("ERROR: streaming finalized report diverged from batch");
        std::process::exit(1);
    }
    if let (Some(floor), Some(eps)) = (stream_floor, stream_eps_min) {
        if eps < floor {
            eprintln!(
                "ERROR: stream ingest {eps:.0} events/s regressed below the \
                 {floor:.0} events/s floor"
            );
            std::process::exit(1);
        }
        eprintln!("stream ingest {eps:.0} events/s >= {floor:.0} events/s floor: ok");
    }
}
