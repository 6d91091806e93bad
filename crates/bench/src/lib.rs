//! The figure/table regeneration harness and the `BENCH_*.json` benches.
//!
//! One function per table and figure of the paper; each returns a
//! [`FigureReport`] with the regenerated series/rows and, where the paper
//! states concrete numbers, the paper value alongside the measured one.
//! The `figures` binary renders them as the markdown of EXPERIMENTS.md
//! ([`render::document`]) and optionally as JSON.
//!
//! The `pipeline`, `lpm`, `flows`, `filters`, `serve` and `stream` modules
//! each time one kernel family on a simulated
//! [`Corpus`](rtbh_sim::Corpus) and return a [`Bench`] record; the
//! `pipeline_bench` binary simulates the corpus once, runs the benches
//! named on its command line and writes each record to
//! `BENCH_<name>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod filters;
pub mod flows;
pub mod lpm;
pub mod pipeline;
pub mod render;
pub mod serve;
pub mod stream;

use std::hint::black_box;
use std::time::Instant;

use rtbh_core::pipeline::{Analyzer, FullReport};
use rtbh_json::ToJson;
use rtbh_sim::{GroundTruth, ScenarioConfig, SimOutput};

pub use figures::all_figures;
pub use filters::{bench_filters, FiltersBench};
pub use flows::{bench_flows, FlowsBench};
pub use lpm::{bench_index, IndexBench};
pub use pipeline::{bench_pipeline, PipelineBench};
pub use render::FigureReport;
pub use serve::{bench_serve, ServeBench};
pub use stream::{bench_stream, StreamBench};

/// One bench's record. Its JSON form is the bench's own fields;
/// `pipeline_bench` writes the scenario, the samples fed and the reps ahead
/// of them.
pub trait Bench: ToJson {
    /// The human-readable result, printed to stdout.
    fn summary(&self) -> String;

    /// Every reason the run fails: an answer that diverged from its
    /// reference, or a headline below the module's floor. Empty on a pass.
    fn failures(&self) -> Vec<String>;
}

/// Best-of-`reps` wall time of `f` (at least one run), in nanoseconds.
fn best_of_ns<R>(reps: usize, f: &dyn Fn() -> R) -> u64 {
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one rep")
}

/// The `--tiny` corpus, simulated once for every bench test.
#[cfg(test)]
fn tiny_corpus() -> &'static rtbh_sim::Corpus {
    static TINY: std::sync::OnceLock<rtbh_sim::Corpus> = std::sync::OnceLock::new();
    TINY.get_or_init(|| rtbh_sim::run(&ScenarioConfig::tiny()).corpus)
}

/// A fully prepared experiment context: simulated corpus + analysis results
/// + (for scoring annotations only) the ground truth.
pub struct Context {
    /// The scenario that generated the corpus.
    pub config: ScenarioConfig,
    /// The prepared analyzer (cleaning, alignment, events, indices).
    pub analyzer: Analyzer,
    /// Every analysis result.
    pub report: FullReport,
    /// The simulator's ground truth, used only to annotate reports.
    pub truth: GroundTruth,
}

impl Context {
    /// Runs the scenario and the full pipeline.
    pub fn build(config: ScenarioConfig) -> Self {
        let SimOutput { corpus, truth } = rtbh_sim::run(&config);
        let analyzer = Analyzer::with_defaults(corpus);
        let report = analyzer.full();
        Self {
            config,
            analyzer,
            report,
            truth,
        }
    }
}
