//! Runs the `rtbh-bench` benches on one simulated corpus and writes each
//! record to `BENCH_<name>.json` in the working directory.
//!
//! ```text
//! pipeline_bench [--tiny | --scale F | --paper] [--seed N] [--reps N]
//!                [pipeline | index | flows | filters | serve | stream]...
//! ```
//!
//! Defaults: scale 0.25, 3 reps, and all six benches in that order. The
//! scenario is simulated once and every named bench runs on that corpus:
//!
//! * `pipeline` — stage timings of a 1-worker vs an all-cores analyzer
//!   ([`rtbh_bench::pipeline`]);
//! * `index` — trie vs frozen-LPM lookups ([`rtbh_bench::lpm`]);
//! * `flows` — AoS vs columnar vs enriched drop-provenance scans
//!   ([`rtbh_bench::flows`]);
//! * `filters` — naive vs masked vs pruned filter kernels
//!   ([`rtbh_bench::filters`]);
//! * `serve` — an in-process `rtbhd` under 1/2/all-cores clients
//!   ([`rtbh_bench::serve`]);
//! * `stream` — streaming ingest at 1/2/all-cores finalizer workers
//!   ([`rtbh_bench::stream`]).
//!
//! Each file begins with `scenario` (the `ScenarioConfig`), `samples` (the
//! flow samples fed) and `reps`, then the bench's own record. Each bench
//! prints its summary to stdout. Once all have run, every failure (an
//! answer that diverged from its reference, or a headline below the floor
//! its module defines) goes to stderr and the process exits 1 if there is
//! any. An unknown flag or bench name exits 2 with the usage text.

use rtbh_bench::{
    bench_filters, bench_flows, bench_index, bench_pipeline, bench_serve, bench_stream, Bench,
};
use rtbh_json::{Json, ToJson};
use rtbh_sim::{Corpus, ScenarioConfig};

/// Runs one bench on the corpus with the given reps.
type Run = fn(&Corpus, usize) -> Box<dyn Bench>;

/// Every bench by name, in the order a run without names takes.
const BENCHES: [(&str, Run); 6] = [
    ("pipeline", |c, reps| Box::new(bench_pipeline(c, reps))),
    ("index", |c, reps| Box::new(bench_index(c, reps))),
    ("flows", |c, reps| Box::new(bench_flows(c, reps))),
    ("filters", |c, reps| Box::new(bench_filters(c, reps))),
    ("serve", |c, reps| Box::new(bench_serve(c, reps))),
    ("stream", |c, reps| Box::new(bench_stream(c, reps))),
];

fn usage() -> ! {
    eprintln!(
        "usage: pipeline_bench [--tiny | --scale F | --paper] [--seed N] [--reps N] [{}]...",
        BENCHES.map(|(name, _)| name).join(" | ")
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn main() {
    let mut config = ScenarioConfig::scaled(0.25);
    let mut reps: usize = 3;
    let mut picked = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tiny" => config = ScenarioConfig::tiny(),
            "--paper" => config = ScenarioConfig::paper(),
            "--scale" => {
                config = ScenarioConfig::try_scaled(value(&mut args)).unwrap_or_else(|| usage())
            }
            "--seed" => config.seed = value(&mut args),
            "--reps" => reps = value(&mut args),
            name => match BENCHES.iter().find(|(n, _)| *n == name) {
                Some(&bench) => picked.push(bench),
                None => usage(),
            },
        }
    }
    if picked.is_empty() {
        picked = BENCHES.to_vec();
    }
    let reps = reps.max(1);

    eprintln!(
        "simulating {} days, {} members (seed {:#x}) ...",
        config.days, config.members, config.seed
    );
    let corpus = rtbh_sim::run(&config).corpus;
    let samples = corpus.flows.len();
    println!(
        "corpus: {} updates, {samples} samples",
        corpus.updates.len()
    );

    let mut failures = Vec::new();
    for (name, run) in picked {
        eprintln!("\n{name} bench ({reps} rep(s)) ...");
        let bench = run(&corpus, reps);
        println!("\n{name} (best of {reps}):\n{}", bench.summary());
        let Json::Obj(own) = bench.to_json() else {
            unreachable!("bench records serialize as objects")
        };
        let mut fields = vec![
            ("scenario".to_string(), config.to_json()),
            ("samples".to_string(), samples.to_json()),
            ("reps".to_string(), reps.to_json()),
        ];
        fields.extend(own);
        let path = format!("BENCH_{name}.json");
        match std::fs::write(&path, rtbh_json::to_vec_pretty(&Json::Obj(fields))) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => failures.push(format!("failed to write {path}: {e}")),
        }
        failures.extend(bench.failures().into_iter().map(|f| format!("{name}: {f}")));
    }
    for f in &failures {
        eprintln!("ERROR: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
