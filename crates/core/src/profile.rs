//! Lightweight stage profiling for the analysis pipeline.
//!
//! [`pipeline::Analyzer::full_with_profile`](crate::pipeline::Analyzer::full_with_profile)
//! wraps every analysis stage in [`time_stage`] and returns a
//! [`PipelineProfile`]: per-stage wall time, the worker-thread count the
//! stage's kernel was sharded over, and the input footprint the stage
//! scanned (BGP updates, flow samples, RTBH events) — from which a
//! samples/sec throughput is derived. The preparation kernels of
//! `Analyzer::new` (clean, align, event inference, enrichment, index
//! build) are profiled too and carried in [`PipelineProfile::prepare`]. The
//! profile serializes to JSON through `rtbh_json` (`rtbh analyze
//! --timings`, the `pipeline_bench` binary in `rtbh-bench`), so it can be
//! diffed across machines and commits.
//!
//! The footprint counters are *input* sizes, not output sizes: they answer
//! "how much data did this stage have to look at", which is the quantity
//! that predicts wall time and guides further sharding. Event-scoped stages
//! (pre-events, protocols, filtering, collateral) report the length of
//! each event's [`SampleIndex`](crate::index::SampleIndex) `towards` list,
//! once per event, rather than the whole flow log; the host analysis
//! reports every sealed row once, because it buckets the rows in one pass.
//! Both are what the stages actually traverse.
//!
//! # Example
//!
//! ```
//! use rtbh_core::Analyzer;
//!
//! let out = rtbh_sim::run(&rtbh_sim::ScenarioConfig::tiny());
//! let analyzer = Analyzer::with_defaults(out.corpus);
//! let (_report, profile) = analyzer.full_with_profile();
//! assert_eq!(profile.stages.len(), 10);
//! println!("{}", profile.render());
//! ```

use std::time::Instant;

/// How a pipeline run executed its stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// All stages on the calling thread, in DAG order (one kernel worker).
    Sequential,
    /// Independent stages on scoped worker threads (more than one kernel
    /// worker).
    Parallel,
    /// Event-at-a-time ingest through [`crate::stream`], then the batch
    /// finalizer — `prepare` carries the ingest/finish/finalize phases,
    /// `stages` the analysis stages of the finalized report.
    Streaming,
}

impl ExecutionMode {
    /// Lower-case name for human-readable output.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Sequential => "sequential",
            Self::Parallel => "parallel",
            Self::Streaming => "streaming",
        }
    }
}

/// The input footprint of one stage: how much of the corpus it scans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// BGP updates scanned.
    pub updates: u64,
    /// Flow samples scanned (for event-scoped stages: the samples indexed
    /// towards the event prefixes, not the whole flow log).
    pub samples: u64,
    /// RTBH events touched.
    pub events: u64,
}

/// Wall time and input footprint of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stable stage identifier (e.g. `"acceptance"`).
    pub stage: String,
    /// Wall-clock time of the stage, in nanoseconds.
    pub wall_ns: u64,
    /// Worker threads the stage's kernel ran on (1 = on its own thread).
    pub workers: usize,
    /// BGP updates scanned by the stage.
    pub updates_scanned: u64,
    /// Flow samples scanned by the stage.
    pub samples_scanned: u64,
    /// RTBH events touched by the stage.
    pub events_touched: u64,
}

impl StageStats {
    /// Scan throughput: flow samples per second of stage wall time
    /// (0 when the stage scanned no samples).
    pub fn samples_per_sec(&self) -> f64 {
        if self.samples_scanned == 0 {
            0.0
        } else {
            self.samples_scanned as f64 / (self.wall_ns.max(1) as f64 / 1e9)
        }
    }
}

/// Runs a closure and records its wall time together with the declared
/// input footprint. The building block of the pipeline's profiling layer.
pub fn time_stage<T>(stage: &str, footprint: Footprint, f: impl FnOnce() -> T) -> (T, StageStats) {
    time_stage_with_workers(stage, footprint, 1, f)
}

/// [`time_stage`] for a data-parallel kernel: additionally records the
/// worker-thread count the stage's inner loop was sharded over.
pub fn time_stage_with_workers<T>(
    stage: &str,
    footprint: Footprint,
    workers: usize,
    f: impl FnOnce() -> T,
) -> (T, StageStats) {
    let t0 = Instant::now();
    let out = f();
    let stats = StageStats {
        stage: stage.to_string(),
        wall_ns: t0.elapsed().as_nanos() as u64,
        workers,
        updates_scanned: footprint.updates,
        samples_scanned: footprint.samples,
        events_touched: footprint.events,
    };
    (out, stats)
}

/// The profile of one full pipeline run: execution mode, the wall time of
/// the stage phase, the prepare kernels' statistics and per-stage
/// statistics in canonical stage order (independent of completion order,
/// so sequential and parallel profiles line up).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineProfile {
    /// How the stages were executed.
    pub mode: ExecutionMode,
    /// Scoped worker threads spawned by the run (0 when sequential).
    pub worker_threads: usize,
    /// Wall time of the stage phase, in nanoseconds: from the start of
    /// the first analysis stage to the end of the last, thread joins
    /// included. The prepare kernels ran before it and are not part of it
    /// (see [`Self::prepare_sum_ns`]).
    pub total_wall_ns: u64,
    /// Stats of the shared preparation kernels (clean, align, event
    /// inference, enrichment, index build), recorded once when the
    /// analyzer was prepared — their wall time is *not* part of
    /// [`Self::total_wall_ns`], which covers the analysis stages only.
    pub prepare: Vec<StageStats>,
    /// Per-stage statistics, in canonical stage order.
    pub stages: Vec<StageStats>,
}

impl PipelineProfile {
    /// The stats of a stage by name, if present.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Sum of the prepare rows' wall times: the preparation that ran once,
    /// sequentially, before the stage phase.
    pub fn prepare_sum_ns(&self) -> u64 {
        self.prepare.iter().map(|s| s.wall_ns).sum()
    }

    /// Sum of per-stage wall times — the work the run performed, which a
    /// parallel run packs into less stage-phase time.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_ns).sum()
    }

    /// Achieved concurrency: stage-sum divided by stage-phase wall time
    /// (1.0× for a perfectly sequential run, >1.0× when stages overlap).
    pub fn concurrency_factor(&self) -> f64 {
        self.stage_sum_ns() as f64 / self.total_wall_ns.max(1) as f64
    }

    /// Renders the profile as a fixed-width text table: the prepare rows,
    /// the stage rows, a `prepare` line summing the prepare rows and a
    /// `total` line for the stage phase.
    pub fn render(&self) -> String {
        self.table(None)
    }

    /// [`Self::render`] for a whole `rtbh analyze` job (what `--timings`
    /// prints): `load` as a `load:<stage>` row above the prepare rows
    /// (`load:corpus`, the file read plus the container decode), and below
    /// `total` an `end-to-end` line: `end_to_end_ns` of wall clock from the
    /// start of the load to the end of the report render (`render_ns` of
    /// it), so it covers load, prepare, the stage phase and the render.
    pub fn render_job(&self, load: &StageStats, render_ns: u64, end_to_end_ns: u64) -> String {
        self.table(Some((load, render_ns, end_to_end_ns)))
    }

    fn table(&self, job: Option<(&StageStats, u64, u64)>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>12} {:>5} {:>12} {:>12} {:>9} {:>12}\n",
            "stage", "wall", "wrk", "updates", "samples", "events", "samples/s"
        ));
        fn row(out: &mut String, label: &str, s: &StageStats) {
            out.push_str(&format!(
                "{:<16} {:>12} {:>5} {:>12} {:>12} {:>9} {:>12}\n",
                label,
                format_ns(s.wall_ns),
                s.workers,
                s.updates_scanned,
                s.samples_scanned,
                s.events_touched,
                format_rate(s.samples_per_sec()),
            ));
        }
        if let Some((load, _, _)) = job {
            row(&mut out, &format!("load:{}", load.stage), load);
        }
        for s in &self.prepare {
            row(&mut out, &format!("prepare:{}", s.stage), s);
        }
        for s in &self.stages {
            row(&mut out, &s.stage, s);
        }
        out.push_str(&format!(
            "{:<16} {:>12}   (sum of the prepare rows)\n",
            "prepare",
            format_ns(self.prepare_sum_ns())
        ));
        out.push_str(&format!(
            "{:<16} {:>12}   (stage phase: {}, {} worker threads, stage-sum {}, concurrency {:.2}x)\n",
            "total",
            format_ns(self.total_wall_ns),
            self.mode.as_str(),
            self.worker_threads,
            format_ns(self.stage_sum_ns()),
            self.concurrency_factor()
        ));
        if let Some((_, render_ns, end_to_end_ns)) = job {
            out.push_str(&format!(
                "{:<16} {:>12}   (wall clock: load, prepare, stage phase and report render {})\n",
                "end-to-end",
                format_ns(end_to_end_ns),
                format_ns(render_ns)
            ));
        }
        out
    }
}

/// Human-readable rate from samples/second (`-` for sample-free stages).
fn format_rate(rate: f64) -> String {
    if rate <= 0.0 {
        "-".to_string()
    } else if rate >= 1e9 {
        format!("{:.2} G/s", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2} M/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1} k/s", rate / 1e3)
    } else {
        format!("{rate:.0}/s")
    }
}

/// Human-readable duration from nanoseconds.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> PipelineProfile {
        let (_, a) = time_stage(
            "alpha",
            Footprint {
                updates: 10,
                samples: 20,
                events: 3,
            },
            || (0..1000u64).sum::<u64>(),
        );
        let (_, b) = time_stage("beta", Footprint::default(), || ());
        let (_, prep) = time_stage_with_workers(
            "index",
            Footprint {
                updates: 5,
                samples: 100,
                events: 0,
            },
            4,
            || (),
        );
        PipelineProfile {
            mode: ExecutionMode::Sequential,
            worker_threads: 0,
            total_wall_ns: a.wall_ns + b.wall_ns,
            prepare: vec![prep],
            stages: vec![a, b],
        }
    }

    #[test]
    fn time_stage_records_footprint_and_returns_output() {
        let (out, stats) = time_stage(
            "demo",
            Footprint {
                updates: 7,
                samples: 9,
                events: 2,
            },
            || 42,
        );
        assert_eq!(out, 42);
        assert_eq!(stats.stage, "demo");
        assert_eq!(stats.updates_scanned, 7);
        assert_eq!(stats.samples_scanned, 9);
        assert_eq!(stats.events_touched, 2);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn time_stage_with_workers_records_the_worker_count() {
        let (_, stats) = time_stage_with_workers(
            "kernel",
            Footprint {
                updates: 0,
                samples: 1_000,
                events: 0,
            },
            8,
            || (),
        );
        assert_eq!(stats.workers, 8);
        assert!(stats.samples_per_sec() > 0.0);
        let (_, empty) = time_stage("empty", Footprint::default(), || ());
        assert_eq!(empty.samples_per_sec(), 0.0);
    }

    #[test]
    fn render_lists_every_stage_and_the_total() {
        let profile = sample_profile();
        let text = profile.render();
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.contains("prepare:index"));
        assert!(text.contains("total"));
        assert!(text.contains("sequential"));
        // The prepare line sums the prepare rows and sits above the total,
        // which says it covers the stage phase.
        let lines: Vec<&str> = text.lines().collect();
        let prepare = lines
            .iter()
            .position(|l| l.starts_with("prepare "))
            .expect("a prepare line");
        assert!(lines[prepare].contains(&format_ns(profile.prepare_sum_ns())));
        assert!(lines[prepare].contains("sum of the prepare rows"));
        assert!(lines[prepare + 1].starts_with("total"));
        assert!(lines[prepare + 1].contains("stage phase"));
        assert_eq!(prepare + 2, lines.len());
    }

    #[test]
    fn render_job_frames_the_table_with_load_and_end_to_end() {
        let profile = sample_profile();
        let (_, load) = time_stage(
            "corpus",
            Footprint {
                updates: 5,
                samples: 2_000,
                events: 0,
            },
            || (),
        );
        let text = profile.render_job(&load, 1_500, 9_000_000);
        let lines: Vec<&str> = text.lines().collect();
        // The load row opens the table, right under the header; the other
        // rows and summary lines are `render`'s, in its order.
        assert!(lines[1].starts_with("load:corpus "), "{text}");
        assert!(lines[1].contains("2000"));
        let plain = profile.render();
        assert_eq!(
            lines[2..lines.len() - 1],
            plain.lines().skip(1).collect::<Vec<_>>()
        );
        let last = lines[lines.len() - 1];
        assert!(last.starts_with("end-to-end "), "{text}");
        assert!(last.contains("9.00 ms"));
        assert!(last.contains("report render 1.5 us"));
    }

    #[test]
    fn stage_lookup_and_sums() {
        let profile = sample_profile();
        assert!(profile.stage("alpha").is_some());
        assert!(profile.stage("gamma").is_none());
        assert_eq!(
            profile.stage_sum_ns(),
            profile.stages.iter().map(|s| s.wall_ns).sum::<u64>()
        );
        assert_eq!(profile.prepare_sum_ns(), profile.prepare[0].wall_ns);
    }

    #[test]
    fn profile_serializes_to_json_and_back() {
        let profile = sample_profile();
        let json = rtbh_json::to_string(&profile);
        let back: PipelineProfile = rtbh_json::from_str(&json).expect("deserialize profile");
        assert_eq!(back, profile);
    }

    #[test]
    fn format_ns_picks_sensible_units() {
        assert_eq!(format_ns(5), "5 ns");
        assert_eq!(format_ns(5_000), "5.0 us");
        assert_eq!(format_ns(5_000_000), "5.00 ms");
        assert_eq!(format_ns(5_000_000_000), "5.00 s");
    }

    #[test]
    fn format_rate_picks_sensible_units() {
        assert_eq!(format_rate(0.0), "-");
        assert_eq!(format_rate(500.0), "500/s");
        assert_eq!(format_rate(2_500.0), "2.5 k/s");
        assert_eq!(format_rate(3_000_000.0), "3.00 M/s");
        assert_eq!(format_rate(2_000_000_000.0), "2.00 G/s");
    }
}

rtbh_json::impl_json! { enum ExecutionMode { Sequential, Parallel, Streaming } }

rtbh_json::impl_json! { struct Footprint { updates, samples, events } }

rtbh_json::impl_json! {
    struct StageStats {
        stage, wall_ns, workers, updates_scanned, samples_scanned, events_touched,
    }
}

rtbh_json::impl_json! {
    struct PipelineProfile { mode, worker_threads, total_wall_ns, prepare, stages }
}
