//! The figure/table regeneration harness.
//!
//! One function per table and figure of the paper; each returns a
//! [`FigureReport`] with the regenerated series/rows and, where the paper
//! states concrete numbers, the paper value alongside the measured one.
//! The `figures` binary renders them as the markdown of EXPERIMENTS.md
//! ([`render::document`]) and optionally as JSON.

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

use rtbh_core::pipeline::{Analyzer, FullReport};
use rtbh_sim::{GroundTruth, ScenarioConfig, SimOutput};

pub use figures::all_figures;
pub use filters::{bench_filters, FiltersBench};
pub use flows::{bench_flows, FlowsBench};
pub use lpm::{bench_index, IndexBench};
pub use pipeline::{bench_pipeline, PipelineBench};
pub use render::FigureReport;
pub use serve::{bench_serve, ServeBench};
pub use stream::{bench_stream, StreamBench};

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
