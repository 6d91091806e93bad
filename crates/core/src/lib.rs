//! `rtbh-core` — the paper's analysis pipeline.
//!
//! This crate reimplements, end to end, every analysis of *"Down the Black
//! Hole: Dismantling Operational Practices of BGP Blackholing at IXPs"*
//! (IMC 2019). It consumes a recorded [`corpus::Corpus`] — the BGP update
//! log of an IXP route server plus 1-in-N sampled flow records — and
//! regenerates each of the paper's tables and figures:
//!
//! | module | paper section | artefacts |
//! |---|---|---|
//! | [`clean`] | §3.1 | internal-traffic removal |
//! | [`align`] | §3.1, Fig. 2 | MLE control/data clock-offset estimation |
//! | [`load`] | §3.1–3.2, Fig. 3 | RTBH signaling load, drop provenance |
//! | [`visibility`] | §4.1, Fig. 4 | targeted-blackholing visibility percentiles |
//! | [`acceptance`] | §4.2, Figs. 5–8 | drop rates by prefix length, top-100 source ASes |
//! | [`events`] | §5.1, Figs. 9–10 | RTBH event inference (Δ-merge), merge sweep |
//! | [`preevent`] | §5.2–5.3, Figs. 11–13, Table 2 | EWMA anomaly correlation |
//! | [`protocols`] | §5.4, Table 3 | during-event protocol mix, amplification vectors |
//! | [`filtering`] | §5.5, Figs. 14–15 | fine-grained filter emulation, AS participation |
//! | [`hosts`] | §6.1–6.2, Figs. 16–17, Table 4 | client/server host classification |
//! | [`collateral`] | §6.3, Fig. 18 | collateral damage on server top-ports |
//! | [`classify`] | §7.3, Fig. 19, Table 1 | final use-case classification |
//!
//! [`columns`] holds the cleaned flow log as a columnar (SoA) store whose
//! one-pass enrichment kernel precomputes every per-sample id the stages
//! need (interned member/origin ASNs, blackhole-prefix ids, activity bits)
//! plus a time-bucket window index; [`index`] compiles the per-corpus
//! lookup tables that kernel reads and buckets the precomputed ids into
//! the shared sample↔prefix lists over a frozen LPM table;
//! [`pipeline`] wires everything into a single [`pipeline::Analyzer`]
//! facade, running the independent analyses on scoped worker threads
//! when it has more than one kernel worker and inline on the calling
//! thread at one;
//! [`shard`] is the chunk-parallel scaffold behind the data-parallel sample
//! kernels (prepare's two passes — internal samples with the offset votes,
//! then enrichment with the clock shift — and the index build); [`profile`]
//! records per-stage wall times, worker counts and input footprints (`rtbh
//! analyze --timings`, `BENCH_pipeline.json`); [`serve`] promotes the
//! analyzer into the `rtbhd` multi-client query server (length-prefixed
//! binary protocol, thread-per-core workers, [`lru`]-cached responses)
//! answering window aggregates, per-prefix drop provenance and report
//! sections over `Arc` snapshots of the sealed chunks; [`stream`] is the
//! event-driven analyzer — a watermark-ordered feed of updates and samples
//! drives a bounded ring of sealed chunks, incremental EWMA detectors and
//! a journaled live-verdict log, and its finalizer reproduces the batch
//! [`pipeline::FullReport`] byte-for-byte.
//!
//! The pipeline never sees simulator ground truth — only what the paper's
//! vantage point could record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acceptance;
pub mod align;
pub mod classify;
pub mod clean;
pub mod collateral;
pub mod columns;
pub mod corpus;
pub mod events;
pub mod filter;
pub mod filtering;
pub mod hosts;
pub mod index;
pub mod load;
pub mod lru;
pub mod pipeline;
pub mod preevent;
pub mod profile;
pub mod protocols;
pub mod report;
pub mod serve;
pub mod shard;
pub mod stream;
pub mod visibility;

pub use corpus::{Corpus, MemberInfo};
pub use events::RtbhEvent;
pub use pipeline::Analyzer;
pub use profile::PipelineProfile;
