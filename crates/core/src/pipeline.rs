//! The end-to-end analysis facade.
//!
//! [`Analyzer`] prepares a corpus once (cleaning, clock alignment, event
//! inference, sample indexing) and exposes each of the paper's analyses;
//! [`Analyzer::full`] runs them all and returns a [`FullReport`] with the
//! headline numbers of the paper's abstract.
//!
//! # Concurrency
//!
//! The per-analysis functions are pure over shared immutable state
//! (`&SampleIndex`, `&ColumnarFlows`, `&[RtbhEvent]`), so [`Analyzer::full`]
//! can execute the stage dependency DAG on scoped worker threads
//! ([`std::thread::scope`] — no extra dependency, no `'static` bounds):
//!
//! ```text
//! prepare (Analyzer::new: pass 1 clean+votes → align → infer events
//!          → pass 2 enrich+seal → index)
//!   ├─ load ─ provenance          (signal-load chain)
//!   ├─ visibility
//!   ├─ acceptance
//!   ├─ preevents ─┬─ protocols    (inner scope, parallel pair)
//!   │             └─ filtering
//!   └─ hosts ─ collateral
//! join ─ classification(preevents, protocols)
//! ```
//!
//! The schedule follows the analyzer's kernel worker count
//! ([`AnalyzerConfig::workers`]): above one worker each chain gets its own
//! scoped thread; at one worker the same chains run inline on the calling
//! thread, top to bottom, so `rtbh analyze --threads 1` runs the whole
//! analysis on one thread. Both schedules produce byte-identical reports
//! (asserted by the `determinism` and `report_identity` tests).
//! [`Analyzer::full_with_profile`] additionally returns a
//! [`PipelineProfile`] with per-stage wall times and input footprints.

use rtbh_fabric::FlowLog;
use rtbh_net::TimeDelta;
use rtbh_stats::OffsetVotes;

use crate::acceptance::{analyze_acceptance, AcceptanceAnalysis};
use crate::align::Alignment;
use crate::classify::{classify_events, Classification, ClassifyConfig, UseCase};
use crate::clean::CleanReport;
use crate::collateral::{analyze_collateral, CollateralAnalysis};
use crate::columns::ColumnarFlows;
use crate::corpus::Corpus;
use crate::events::{infer_events, RtbhEvent};
use crate::filtering::{analyze_filtering, FilteringAnalysis};
use crate::hosts::{analyze_hosts, HostAnalysis, HostConfig};
use crate::index::{OriginTable, SampleEnricher, SampleIndex};
use crate::load::{analyze_load, drop_provenance, DropProvenance, LoadAnalysis};
use crate::preevent::{analyze_preevents, PreEventAnalysis, PreEventConfig};
use crate::profile::{self, ExecutionMode, Footprint, PipelineProfile, StageStats};
use crate::protocols::{analyze_event_traffic, ProtocolAnalysis};
use crate::visibility::{visibility_series, VisibilityPoint};

/// Scoped worker threads [`Analyzer::full`] spawns above one kernel worker:
/// five independent stage chains plus the protocols/filtering pair forked
/// after pre-events.
const PARALLEL_WORKERS: usize = 7;

/// All tunables of the pipeline, defaulting to the paper's choices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerConfig {
    /// Δ for merging announcements into events (paper: 10 minutes).
    pub merge_delta: TimeDelta,
    /// Pre-event analysis configuration.
    pub preevent: PreEventConfig,
    /// Host classification configuration.
    pub host: HostConfig,
    /// Final-classification thresholds.
    pub classify: ClassifyConfig,
    /// Clock-offset grid half-range (negative: no alignment).
    pub offset_half_range: TimeDelta,
    /// Clock-offset grid step (zero or negative: no alignment).
    pub offset_step: TimeDelta,
    /// Grid step of the visibility series (Fig. 4).
    pub visibility_step: TimeDelta,
    /// Grid step of the load series (Fig. 3; paper: 1 minute).
    pub load_step: TimeDelta,
    /// Worker threads for the data-parallel sample kernels (prepare's two
    /// passes — clean with the offset votes, then enrichment with the
    /// clock shift — the index build, acceptance and provenance): `0` =
    /// one per available core. Above one worker the analysis stages also
    /// run on scoped threads; at one, the whole analysis runs on the
    /// calling thread. The kernels merge per-chunk results in chunk order
    /// (or, for the offset votes, by exact integer sums), so every worker
    /// count produces byte-identical reports (`rtbh analyze --threads N`).
    pub workers: usize,
    /// Sealed-chunk capacity for the columnar flow store (rows per chunk;
    /// `0` = the ABI default, [`crate::columns::abi::DEFAULT_CHUNK_CAPACITY`]).
    /// Clamped to a power of two in `[64, 2^30]`. Changes only how samples
    /// are sliced into slabs — reports are byte-identical for every value.
    pub chunk_capacity: usize,
}

impl AnalyzerConfig {
    /// The paper's configuration.
    ///
    /// # Example
    ///
    /// ```
    /// use rtbh_core::pipeline::AnalyzerConfig;
    /// use rtbh_net::TimeDelta;
    ///
    /// let config = AnalyzerConfig::PAPER;
    /// // Δ-merge of 10 minutes — the knee of the paper's Fig. 10 sweep.
    /// assert_eq!(config.merge_delta, TimeDelta::minutes(10));
    /// // PAPER is the default configuration.
    /// assert_eq!(config, AnalyzerConfig::default());
    /// ```
    pub const PAPER: Self = Self {
        merge_delta: TimeDelta::minutes(10),
        preevent: PreEventConfig::PAPER,
        host: HostConfig::PAPER,
        classify: ClassifyConfig::PAPER,
        offset_half_range: TimeDelta::seconds(2),
        offset_step: TimeDelta::millis(10),
        visibility_step: TimeDelta::minutes(10),
        load_step: TimeDelta::minutes(1),
        workers: 0,
        chunk_capacity: 0,
    };

    /// Returns the configuration with the sample-kernel worker count set
    /// (`0` = one per available core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Adapts day-scale thresholds (host min-days, classification durations)
    /// to short corpora so tests and demos behave sensibly.
    pub fn for_corpus(corpus: &Corpus) -> Self {
        let period = corpus.period.duration();
        let days = period.as_millis() / TimeDelta::days(1).as_millis();
        let mut config = Self::PAPER;
        config.classify = ClassifyConfig::for_period(period);
        if days < 60 {
            config.host.min_days = ((days / 3).max(2)) as usize;
        }
        config
    }
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self::PAPER
    }
}

/// The prepared pipeline.
pub struct Analyzer {
    corpus: Corpus,
    config: AnalyzerConfig,
    clean_report: CleanReport,
    alignment: Option<Alignment>,
    events: Vec<RtbhEvent>,
    /// The analyzer's one sample store: the cleaned, offset-corrected
    /// samples as enriched sealed chunks, read by every sample-scanning
    /// stage.
    columns: ColumnarFlows,
    index: SampleIndex,
    origins: OriginTable,
    /// Resolved sample-kernel worker count (config's `workers`, with `0`
    /// resolved to the available parallelism).
    kernel_workers: usize,
    /// Stage stats of the preparation kernels, recorded once here and
    /// attached to every profile the analyzer emits.
    prepare: Vec<StageStats>,
}

impl Analyzer {
    /// Prepares a corpus: cleans, aligns clocks, infers events, enriches
    /// the columnar store, indexes.
    ///
    /// The sample work is two sharded passes over the raw corpus log on
    /// `config.workers` scoped threads. Pass 1 (the `clean` row) finds the
    /// internal samples and counts the clock-offset votes of the kept
    /// dropped ones; `align` scans the merged votes. Pass 2 (the `enrich`
    /// row) seals the kept samples straight into enriched chunks, stamping
    /// the offset-corrected timestamp as it goes, so no cleaned or shifted
    /// copy of the log is ever built. Both passes merge in shard order or
    /// by exact integer sums, so any worker count yields the same analyzer
    /// state.
    ///
    /// Preparation consumes the corpus's sample log: once it returns, the
    /// samples live only in [`Analyzer::columns`], and
    /// [`Analyzer::corpus`] keeps the static context and the update log.
    pub fn new(corpus: Corpus, config: AnalyzerConfig) -> Self {
        Self::prepare(corpus, config, None)
    }

    /// Prepares a corpus whose flow log is **already cleaned** (internal
    /// IXP traffic removed), with the enricher the samples were cleaned
    /// by, exactly as [`Analyzer::new`] would: pass 1 then finds nothing
    /// to remove, and `clean_report` stands in for its counts. The log is
    /// read in place and released, not copied.
    ///
    /// This is the finalizer path of the streaming analyzer
    /// ([`crate::stream`]): the stream cleans samples on ingest while
    /// accumulating the same [`CleanReport`] counters, so replaying its
    /// accumulated logs through this constructor reproduces the batch
    /// [`FullReport`] byte-for-byte (pinned by the `stream_diff` suite).
    pub(crate) fn from_cleaned(
        corpus: Corpus,
        config: AnalyzerConfig,
        clean_report: CleanReport,
        enricher: SampleEnricher,
    ) -> Self {
        Self::prepare(corpus, config, Some((clean_report, enricher)))
    }

    /// The one preparation path: pass 1 (`clean`), `align`, `events`,
    /// pass 2 (`enrich`) and `index`. `cleaned` carries the stream's
    /// ingest counters and enricher; without it the corpus's own log is
    /// cleaned here and the enricher compiled from the corpus.
    fn prepare(
        mut corpus: Corpus,
        config: AnalyzerConfig,
        cleaned: Option<(CleanReport, SampleEnricher)>,
    ) -> Self {
        let workers = crate::shard::resolve_workers(config.workers);
        let updates_total = corpus.updates.len() as u64;
        let fed = corpus.flows.len();
        let origins = OriginTable::build(&corpus.routes);
        let (ingest, enricher) = cleaned.unzip();
        let mut prepare = Vec::new();

        let ((enricher, removed, votes), st) = profile::time_stage_with_workers(
            "clean",
            Footprint {
                updates: updates_total,
                samples: fed as u64,
                events: 0,
            },
            workers,
            || {
                let enricher = enricher
                    .unwrap_or_else(|| {
                        SampleEnricher::new(corpus.mac_to_member(), &corpus.internal_macs, &origins)
                    })
                    .with_blackholes(&corpus.updates, corpus.period.end);
                let votes = OffsetVotes::new(config.offset_half_range, config.offset_step);
                let (removed, votes) =
                    enricher.scan(corpus.flows.samples(), votes.as_ref(), workers);
                (enricher, removed, votes)
            },
        );
        prepare.push(st);
        let clean_report = ingest.unwrap_or(CleanReport {
            total: fed,
            internal_removed: removed.len(),
        });
        let kept = (fed - removed.len()) as u64;

        let (alignment, st) = profile::time_stage_with_workers(
            "align",
            Footprint {
                updates: updates_total,
                samples: kept,
                events: 0,
            },
            workers,
            || Alignment::from_votes(votes),
        );
        prepare.push(st);
        let offset = alignment
            .as_ref()
            .map_or(TimeDelta::ZERO, Alignment::estimated_offset);

        let (events, st) = profile::time_stage(
            "events",
            Footprint {
                updates: updates_total,
                samples: 0,
                events: 0,
            },
            || infer_events(&corpus.updates, config.merge_delta, corpus.period.end),
        );
        prepare.push(st);

        // One pass over the kept samples computes every per-sample id the
        // stages consume (interned member/origin ASNs, blackhole-prefix
        // ids, activity bits) — no stage re-hashes a MAC or re-walks the
        // LPM afterwards.
        let (enriched, st) = profile::time_stage_with_workers(
            "enrich",
            Footprint {
                updates: updates_total,
                samples: kept,
                events: 0,
            },
            workers,
            || {
                ColumnarFlows::seal(
                    corpus.flows.samples(),
                    &removed,
                    offset,
                    enricher,
                    workers,
                    config.chunk_capacity,
                )
            },
        );
        prepare.push(st);
        corpus.flows = FlowLog::new();
        let columns = enriched.columns;

        let (index, st) = profile::time_stage_with_workers(
            "index",
            Footprint {
                updates: updates_total,
                samples: kept,
                events: 0,
            },
            workers,
            || {
                SampleIndex::from_columns(
                    enriched.blackholes,
                    enriched.blackhole_prefixes,
                    &columns,
                    workers,
                )
            },
        );
        prepare.push(st);

        Self {
            corpus,
            config,
            clean_report,
            alignment,
            events,
            columns,
            index,
            origins,
            kernel_workers: workers,
            prepare,
        }
    }

    /// Prepares with thresholds adapted to the corpus length.
    pub fn with_defaults(corpus: Corpus) -> Self {
        let config = AnalyzerConfig::for_corpus(&corpus);
        Self::new(corpus, config)
    }

    /// The corpus under analysis, minus its sample log: preparation
    /// consumes `flows` (it is empty here), so the samples are read
    /// through [`Analyzer::columns`] and their count through
    /// [`Analyzer::clean_report`].
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The configuration in effect.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// The cleaning report (§3.1).
    pub fn clean_report(&self) -> CleanReport {
        self.clean_report
    }

    /// The clock alignment (Fig. 2), if dropped samples existed.
    pub fn alignment(&self) -> Option<&Alignment> {
        self.alignment.as_ref()
    }

    /// The enriched columnar flow store: the cleaned, clock-aligned
    /// samples in capture order, the analyzer's only copy of them.
    pub fn columns(&self) -> &ColumnarFlows {
        &self.columns
    }

    /// The inferred RTBH events (§5.1).
    pub fn events(&self) -> &[RtbhEvent] {
        &self.events
    }

    /// The shared sample index.
    pub fn index(&self) -> &SampleIndex {
        &self.index
    }

    /// The resolved sample-kernel worker count (`config.workers`, with `0`
    /// resolved to one worker per available core).
    pub fn kernel_workers(&self) -> usize {
        self.kernel_workers
    }

    /// Stage stats of the preparation kernels recorded by [`Analyzer::new`],
    /// always the five rows `clean` (pass 1: internal samples and offset
    /// votes), `align` (the offset scan), `events`, `enrich` (pass 2:
    /// sealing with the clock shift) and `index`. Also attached to every
    /// [`PipelineProfile`] as [`PipelineProfile::prepare`].
    pub fn prepare_profile(&self) -> &[StageStats] {
        &self.prepare
    }

    /// The IP→origin table.
    pub fn origins(&self) -> &OriginTable {
        &self.origins
    }

    /// Fig. 3 (+§3.2): signaling load.
    pub fn load(&self) -> LoadAnalysis {
        analyze_load(
            &self.corpus.updates,
            self.corpus.period,
            self.config.load_step,
        )
    }

    /// §3.1: drop provenance (route-server vs bilateral).
    pub fn provenance(&self) -> DropProvenance {
        drop_provenance(&self.columns, self.kernel_workers)
    }

    /// Fig. 4: targeted-blackholing visibility percentiles.
    pub fn visibility(&self) -> Vec<VisibilityPoint> {
        visibility_series(
            &self.corpus.updates,
            self.corpus.member_asns(),
            self.corpus.route_server_asn,
            self.corpus.period,
            self.config.visibility_step,
        )
    }

    /// Figs. 5–8: acceptance analysis.
    pub fn acceptance(&self) -> AcceptanceAnalysis {
        analyze_acceptance(&self.columns, self.kernel_workers)
    }

    /// Figs. 11–13 + Table 2: pre-event analysis.
    pub fn preevents(&self) -> PreEventAnalysis {
        analyze_preevents(
            &self.events,
            &self.index,
            &self.columns,
            &self.config.preevent,
        )
    }

    /// §5.4 + Table 3: during-event traffic.
    pub fn protocols(&self, preevents: &PreEventAnalysis) -> ProtocolAnalysis {
        analyze_event_traffic(&self.events, &self.index, &self.columns, preevents)
    }

    /// Figs. 14–15: fine-grained filtering and AS participation.
    pub fn filtering(&self, preevents: &PreEventAnalysis) -> FilteringAnalysis {
        analyze_filtering(&self.events, &self.index, &self.columns, preevents)
    }

    /// Figs. 16–17 + Table 4: host classification.
    pub fn hosts(&self) -> HostAnalysis {
        analyze_hosts(&self.events, &self.index, &self.columns, &self.config.host)
    }

    /// Fig. 18: collateral damage.
    pub fn collateral(&self, hosts: &HostAnalysis) -> CollateralAnalysis {
        analyze_collateral(&self.events, &self.index, &self.columns, hosts)
    }

    /// Fig. 19: final classification.
    pub fn classification(
        &self,
        preevents: &PreEventAnalysis,
        protocols: &ProtocolAnalysis,
    ) -> Classification {
        classify_events(&self.events, preevents, protocols, &self.config.classify)
    }

    /// Input footprint of the stages that scan the update log only.
    fn footprint_updates(&self) -> Footprint {
        Footprint {
            updates: self.corpus.updates.len() as u64,
            samples: 0,
            events: 0,
        }
    }

    /// Input footprint of the stages that scan updates and the full flow log.
    fn footprint_updates_flows(&self) -> Footprint {
        Footprint {
            updates: self.corpus.updates.len() as u64,
            samples: self.columns.len() as u64,
            events: 0,
        }
    }

    /// Input footprint of the event-scoped stages: every inferred event plus
    /// the indexed samples covering the event prefixes.
    fn footprint_events(&self) -> Footprint {
        Footprint {
            updates: 0,
            samples: self.index.event_sample_footprint(&self.events),
            events: self.events.len() as u64,
        }
    }

    /// Input footprint of the host analysis: every indexed sample id, since
    /// it walks each prefix's lists once, plus the events whose windows it
    /// excludes.
    fn footprint_hosts(&self) -> Footprint {
        Footprint {
            updates: 0,
            samples: self.index.total_ids(),
            events: self.events.len() as u64,
        }
    }

    /// Runs the whole pipeline (see the [module docs](crate::pipeline) for
    /// the stage DAG and its schedule).
    ///
    /// The report is byte-identical (under JSON serialization) for every
    /// worker count: every stage is a pure function of shared immutable
    /// inputs, so the execution schedule cannot change the result.
    ///
    /// # Example
    ///
    /// ```
    /// use rtbh_core::Analyzer;
    ///
    /// let out = rtbh_sim::run(&rtbh_sim::ScenarioConfig::tiny());
    /// let analyzer = Analyzer::with_defaults(out.corpus);
    /// let report = analyzer.full();
    /// assert!(report.headline().total_events > 0);
    /// ```
    pub fn full(&self) -> FullReport {
        self.full_with_profile().0
    }

    /// [`Analyzer::full`] plus the stage profile of the run (per-stage wall
    /// time and input footprint, serializable to JSON).
    ///
    /// With more than one kernel worker each stage chain runs on its own
    /// scoped thread and the profile says [`ExecutionMode::Parallel`]; at
    /// one worker every chain runs inline, in the order written here, and
    /// the profile says [`ExecutionMode::Sequential`].
    pub fn full_with_profile(&self) -> (FullReport, PipelineProfile) {
        let t0 = std::time::Instant::now();
        let workers = self.kernel_workers;
        let parallel = workers > 1;
        let updates = self.footprint_updates();
        let updates_flows = self.footprint_updates_flows();
        let per_event = self.footprint_events();
        let hosts_input = self.footprint_hosts();

        let (
            (load, st_load, provenance, st_prov),
            (visibility, st_vis),
            (acceptance, st_acc),
            (preevents, st_pre, protocols, st_proto, filtering, st_filt),
            (hosts, st_hosts, collateral, st_coll),
        ) = std::thread::scope(|s| {
            let signal = fork(s, parallel, move || {
                let (load, st_load) = profile::time_stage("load", updates, || self.load());
                let (provenance, st_prov) =
                    profile::time_stage_with_workers("provenance", updates_flows, workers, || {
                        self.provenance()
                    });
                (load, st_load, provenance, st_prov)
            });
            let vis = fork(s, parallel, move || {
                profile::time_stage("visibility", updates, || self.visibility())
            });
            let acc = fork(s, parallel, move || {
                profile::time_stage_with_workers("acceptance", updates_flows, workers, || {
                    self.acceptance()
                })
            });
            let pre = fork(s, parallel, move || {
                let (preevents, st_pre) =
                    profile::time_stage("preevents", per_event, || self.preevents());
                let ((protocols, st_proto), (filtering, st_filt)) = std::thread::scope(|s2| {
                    let p = fork(s2, parallel, || {
                        profile::time_stage("protocols", per_event, || self.protocols(&preevents))
                    });
                    let f = fork(s2, parallel, || {
                        profile::time_stage("filtering", per_event, || self.filtering(&preevents))
                    });
                    (p.join(), f.join())
                });
                (preevents, st_pre, protocols, st_proto, filtering, st_filt)
            });
            let host = fork(s, parallel, move || {
                let (hosts, st_hosts) = profile::time_stage("hosts", hosts_input, || self.hosts());
                let (collateral, st_coll) =
                    profile::time_stage("collateral", per_event, || self.collateral(&hosts));
                (hosts, st_hosts, collateral, st_coll)
            });
            (
                signal.join(),
                vis.join(),
                acc.join(),
                pre.join(),
                host.join(),
            )
        });

        let (classification, st_class) = profile::time_stage(
            "classification",
            Footprint {
                updates: 0,
                samples: 0,
                events: self.events.len() as u64,
            },
            || self.classification(&preevents, &protocols),
        );

        let (mode, worker_threads) = if parallel {
            (ExecutionMode::Parallel, PARALLEL_WORKERS)
        } else {
            (ExecutionMode::Sequential, 0)
        };
        let profile = PipelineProfile {
            mode,
            worker_threads,
            total_wall_ns: t0.elapsed().as_nanos() as u64,
            prepare: self.prepare.clone(),
            stages: vec![
                st_load, st_prov, st_vis, st_acc, st_pre, st_proto, st_filt, st_hosts, st_coll,
                st_class,
            ],
        };
        let report = FullReport {
            clean: self.clean_report,
            alignment: self.alignment.clone(),
            load,
            provenance,
            visibility,
            acceptance,
            preevents,
            protocols,
            filtering,
            hosts,
            collateral,
            classification,
        };
        (report, profile)
    }
}

/// A stage chain of [`Analyzer::full_with_profile`]: running on a scoped
/// thread, or already finished on the calling thread.
enum Forked<'scope, T> {
    Spawned(std::thread::ScopedJoinHandle<'scope, T>),
    Done(T),
}

impl<T> Forked<'_, T> {
    /// The chain's result; a panic on its thread resumes on the caller's,
    /// exactly as it would have inline.
    fn join(self) -> T {
        match self {
            Self::Spawned(handle) => handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            Self::Done(out) => out,
        }
    }
}

/// Spawns `f` on `scope` when `parallel`, otherwise runs it at once.
fn fork<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    parallel: bool,
    f: impl FnOnce() -> T + Send + 'scope,
) -> Forked<'scope, T> {
    if parallel {
        Forked::Spawned(scope.spawn(f))
    } else {
        Forked::Done(f())
    }
}

/// Every analysis result in one bundle.
///
/// Serializes to JSON deterministically: every contained map is a
/// `BTreeMap`, so two runs over the same corpus — sequential or parallel —
/// produce byte-identical output.
#[derive(Debug, Clone, PartialEq)]
pub struct FullReport {
    /// Cleaning report (§3.1).
    pub clean: CleanReport,
    /// Clock alignment (Fig. 2).
    pub alignment: Option<Alignment>,
    /// Signaling load (Fig. 3).
    pub load: LoadAnalysis,
    /// Drop provenance (§3.1).
    pub provenance: DropProvenance,
    /// Visibility percentiles (Fig. 4).
    pub visibility: Vec<VisibilityPoint>,
    /// Acceptance analysis (Figs. 5–8).
    pub acceptance: AcceptanceAnalysis,
    /// Pre-event analysis (Figs. 11–13, Table 2).
    pub preevents: PreEventAnalysis,
    /// During-event traffic (§5.4, Table 3).
    pub protocols: ProtocolAnalysis,
    /// Filtering potential (Figs. 14–15).
    pub filtering: FilteringAnalysis,
    /// Host classification (Figs. 16–17, Table 4).
    pub hosts: HostAnalysis,
    /// Collateral damage (Fig. 18).
    pub collateral: CollateralAnalysis,
    /// Final classification (Fig. 19).
    pub classification: Classification,
}

/// The abstract's headline numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Total inferred RTBH events.
    pub total_events: usize,
    /// Share of events with a DDoS-like pre-anomaly (paper: ~1/3 within 1 h,
    /// 27% within 10 min).
    pub anomaly_share: f64,
    /// Average packet drop rate of /32 blackholes (paper: ~50%).
    pub drop_rate_32_packets: f64,
    /// Average byte drop rate of /32 blackholes (paper: ~44%).
    pub drop_rate_32_bytes: f64,
    /// Detected client victims (paper: >2000 in DSL networks alone).
    pub client_victims: usize,
    /// Detected server victims.
    pub server_victims: usize,
    /// Share of anomaly events fully coverable by port filtering
    /// (paper: 90%).
    pub fully_filterable_share: f64,
}

impl FullReport {
    /// Extracts the headline numbers.
    pub fn headline(&self) -> Headline {
        let (clients, servers) = self.hosts.client_server_counts();
        let (d32p, d32b) = self
            .acceptance
            .drop_rate_for_length(32)
            .unwrap_or((0.0, 0.0));
        Headline {
            total_events: self.classification.per_event.len(),
            anomaly_share: self
                .preevents
                .anomaly_share_within(self.preevents.config.anomaly_horizon),
            drop_rate_32_packets: d32p,
            drop_rate_32_bytes: d32b,
            client_victims: clients,
            server_victims: servers,
            fully_filterable_share: self.filtering.fully_filterable_share(0.98),
        }
    }

    /// Convenience: the share of events classified as a use case.
    pub fn use_case_share(&self, use_case: UseCase) -> f64 {
        self.classification
            .shares()
            .get(&use_case)
            .copied()
            .unwrap_or(0.0)
    }
}

rtbh_json::impl_json! {
    struct AnalyzerConfig {
        merge_delta, preevent, host, classify, offset_half_range, offset_step,
        visibility_step, load_step, workers, chunk_capacity,
    }
}

rtbh_json::impl_json! {
    struct FullReport {
        clean, alignment, load, provenance, visibility, acceptance, preevents,
        protocols, filtering, hosts, collateral, classification,
    }
}

rtbh_json::impl_json! {
    struct Headline {
        total_events, anomaly_share, drop_rate_32_packets, drop_rate_32_bytes,
        client_victims, server_victims, fully_filterable_share,
    }
}
