//! The pipeline timing bench behind `BENCH_pipeline.json`.
//!
//! Prepares the corpus twice: a 1-worker [`Analyzer`], whose
//! [`Analyzer::full_with_profile`] runs every stage inline on one thread,
//! and an all-cores one, which shards the prepare kernels and runs the
//! five stage chains on `min(cores, 5)` threads. Each is timed for a
//! configurable number of repetitions, keeping the best (lowest-wall)
//! profile per analyzer. The result carries the corpus dimensions, both
//! stage profiles, the speedup of the whole stage phase and a
//! byte-identity check of the two reports' JSON — the same invariant the
//! `determinism` integration test enforces, here re-verified on every
//! bench run so a regression cannot hide behind a fast-but-wrong schedule.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p rtbh-bench --bin pipeline_bench -- pipeline
//! ```

use rtbh_core::pipeline::{Analyzer, AnalyzerConfig, FullReport};
use rtbh_core::profile::PipelineProfile;
use rtbh_sim::Corpus;

use crate::Bench;

/// The machine-readable result of one pipeline timing run
/// (the content of `BENCH_pipeline.json`).
#[derive(Debug, Clone)]
pub struct PipelineBench {
    /// BGP updates in the corpus.
    pub updates: usize,
    /// Inferred RTBH events.
    pub events: usize,
    /// Best stage profile of the 1-worker analyzer (inline schedule).
    pub sequential: PipelineProfile,
    /// Best stage profile of the all-cores analyzer (scoped schedule on a
    /// multi-core host).
    pub parallel: PipelineProfile,
    /// Stage-phase speedup: sequential wall / parallel wall.
    pub speedup: f64,
    /// Whether both analyzers serialized to byte-identical report JSON.
    pub reports_identical: bool,
}

/// Keeps the run with the lowest end-to-end wall time.
fn keep_best(best: &mut Option<(FullReport, PipelineProfile)>, run: (FullReport, PipelineProfile)) {
    let better = match best {
        Some((_, p)) => run.1.total_wall_ns < p.total_wall_ns,
        None => true,
    };
    if better {
        *best = Some(run);
    }
}

/// Prepares a 1-worker and an all-cores analyzer over `corpus` and times
/// the full pipeline `reps` times on each.
pub fn bench_pipeline(corpus: &Corpus, reps: usize) -> PipelineBench {
    let analyzer_config = AnalyzerConfig::for_corpus(corpus);
    let one = Analyzer::new(corpus.clone(), analyzer_config.with_workers(1));
    let analyzer = Analyzer::new(corpus.clone(), analyzer_config.with_workers(0));

    let mut seq_best: Option<(FullReport, PipelineProfile)> = None;
    let mut par_best: Option<(FullReport, PipelineProfile)> = None;
    for _ in 0..reps.max(1) {
        keep_best(&mut seq_best, one.full_with_profile());
        keep_best(&mut par_best, analyzer.full_with_profile());
    }
    let (seq_report, sequential) = seq_best.expect("reps >= 1");
    let (par_report, parallel) = par_best.expect("reps >= 1");

    let reports_identical = rtbh_json::to_string(&seq_report) == rtbh_json::to_string(&par_report);
    let speedup = sequential.total_wall_ns as f64 / parallel.total_wall_ns.max(1) as f64;

    PipelineBench {
        updates: corpus.updates.len(),
        events: analyzer.events().len(),
        sequential,
        parallel,
        speedup,
        reports_identical,
    }
}

impl Bench for PipelineBench {
    fn summary(&self) -> String {
        format!(
            "{} events\n1 worker:\n{}\nall cores:\n{}\nspeedup: {:.2}x   reports identical: {}",
            self.events,
            self.sequential.render(),
            self.parallel.render(),
            self.speedup,
            self.reports_identical
        )
    }

    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.reports_identical {
            failures.push("1-worker and all-cores reports diverged".to_string());
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_pipeline_reports_identical_modes_on_tiny_corpus() {
        let bench = bench_pipeline(crate::tiny_corpus(), 1);
        assert!(bench.reports_identical);
        assert!(bench.failures().is_empty());
        assert_eq!(bench.sequential.stages.len(), bench.parallel.stages.len());
        assert!(bench.speedup > 0.0);
        // The result must serialize (it is written verbatim to
        // BENCH_pipeline.json).
        rtbh_json::to_string(&bench);
    }
}

rtbh_json::impl_json! {
    serialize struct PipelineBench {
        updates, events, sequential, parallel, speedup, reports_identical,
    }
}
