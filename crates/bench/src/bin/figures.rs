//! Regenerates every table and figure of the paper on a simulated corpus.
//!
//! ```text
//! figures [--tiny | --scale F | --paper] [--seed N] [--json PATH] [ids...]
//! ```
//!
//! Without ids, all experiments run; with ids, only those are computed.
//! An unknown id exits 2 with the usage text before anything is
//! simulated. Stdout is the markdown document of EXPERIMENTS.md
//! ([`rtbh_bench::render::document`]); progress goes to stderr. `--json`
//! additionally writes the reports (including the paper-vs-measured
//! checks) as JSON for machine consumption, so `figures --paper --json
//! EXPERIMENTS.json > EXPERIMENTS.md` regenerates both committed files.

use std::io::Write;

use rtbh_bench::figures::FIGURES;
use rtbh_bench::render::document;
use rtbh_bench::Context;
use rtbh_sim::ScenarioConfig;

fn usage() -> ! {
    let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "usage: figures [--tiny | --scale F | --paper] [--seed N] [--json PATH] [ids...]\n\
         ids: {}",
        ids.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut config = ScenarioConfig::paper();
    let mut json_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
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
                config = ScenarioConfig::try_scaled(f).unwrap_or_else(|| usage());
            }
            "--seed" => {
                config.seed = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--json" => json_path = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            id if FIGURES.iter().any(|(known, _)| *known == id) => wanted.push(arg),
            _ => usage(),
        }
    }

    let t0 = std::time::Instant::now();
    eprintln!(
        "generating corpus: {} days, {} members, {} events (seed {:#x}) ...",
        config.days,
        config.members,
        config.total_events(),
        config.seed
    );
    let ctx = Context::build(config);
    eprintln!(
        "corpus: {} BGP updates, {} flow samples, {} inferred events ({:.1?})",
        ctx.analyzer.corpus().updates.len(),
        ctx.analyzer.clean_report().total,
        ctx.analyzer.events().len(),
        t0.elapsed()
    );

    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|(id, _)| wanted.is_empty() || wanted.iter().any(|w| w == id))
        .map(|(_, report)| report(&ctx))
        .collect();
    print!("{}", document(&ctx, &selected));

    if let Some(path) = json_path {
        let json = rtbh_json::to_string_pretty(&selected);
        let mut f = std::fs::File::create(&path).expect("create json output");
        f.write_all(json.as_bytes()).expect("write json output");
        eprintln!("wrote {path}");
    }
}
