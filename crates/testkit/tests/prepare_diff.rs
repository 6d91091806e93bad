//! Differential suite for prepare's two passes (`Analyzer::new`).
//!
//! Prepare seals the raw corpus log straight into enriched chunks: pass 1
//! finds the internal samples and counts the clock-offset votes, pass 2
//! skips those samples and stamps the offset-corrected timestamp while it
//! seals. The oracle is the chain prepare replaced, one AoS copy per step:
//!
//! 1. `clean_flows_with_workers` → `estimate_offset_with_workers` →
//!    `shift_flows_with_workers`;
//! 2. row-wise lookups written here: `Corpus::mac_to_member` for ingress
//!    and egress, a `PrefixTrie` over the route snapshot for the origin,
//!    and `PrefixTrie`s over the blackholed and the interval-holding
//!    prefixes for `dst_pid`, `src_pid`, `active_pid` and the `active` bit.
//!
//! Every case checks that the clean report and the alignment are equal,
//! that every column value is equal row by row, and that the analyzer's
//! columns equal `build_enriched_with_capacity` over the oracle's shifted
//! log. Inputs are random tiny scenarios with a non-zero clock skew at 1–3
//! workers and capacities 64 and default, plus the edge cases of the mask:
//! internal rows at chunk edges, a MAC that is both a member port and an
//! internal device, every row internal, none internal, zero skew, an
//! invalid offset grid and no dropped samples — plus a blackholed prefix
//! that holds no interval inside one that does, where one destination walk
//! must still find the covering interval-holding prefix.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_bgp::{blackhole_intervals, BgpUpdate, UpdateKind, UpdateLog};
use rtbh_core::align::{estimate_offset_with_workers, shift_flows_with_workers};
use rtbh_core::clean::{clean_flows_with_workers, CleanReport};
use rtbh_core::columns::{ColumnarFlows, NONE};
use rtbh_core::index::{MacResolver, OriginTable};
use rtbh_core::pipeline::AnalyzerConfig;
use rtbh_core::{Analyzer, Corpus};
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_net::{Asn, Community, Interval, Ipv4Addr, MacAddr, Prefix, PrefixTrie, TimeDelta};
use rtbh_rng::Rng;
use rtbh_sim::ScenarioConfig;
use rtbh_testkit::FuzzTarget;

/// The tiny scenario at `seed` with the recorder skewed by `skew_ms`.
fn corpus(seed: u64, skew_ms: i64) -> Corpus {
    let mut config = ScenarioConfig::tiny();
    config.seed = seed;
    config.clock_offset_ms = skew_ms;
    rtbh_sim::run(&config).corpus
}

/// `Analyzer::new` at `workers` workers and chunk capacity `capacity`
/// against the oracle chain; panics on the first difference.
fn check(corpus: &Corpus, workers: usize, capacity: usize, edit: impl Fn(&mut AnalyzerConfig)) {
    let mut config = AnalyzerConfig::for_corpus(corpus).with_workers(workers);
    config.chunk_capacity = capacity;
    edit(&mut config);
    let label = format!("{workers} workers, capacity {capacity}");

    // The oracle chain: three AoS copies.
    let (cleaned, clean_report) = clean_flows_with_workers(corpus, workers);
    let alignment = estimate_offset_with_workers(
        &corpus.updates,
        &cleaned,
        corpus.period.end,
        config.offset_half_range,
        config.offset_step,
        workers,
    );
    let offset = alignment
        .as_ref()
        .map_or(TimeDelta::ZERO, |a| a.estimated_offset());
    let shifted = shift_flows_with_workers(&cleaned, offset, workers);

    let analyzer = Analyzer::new(corpus.clone(), config);
    assert_eq!(analyzer.clean_report(), clean_report, "{label}");
    assert_eq!(
        analyzer.clean_report(),
        CleanReport {
            total: corpus.flows.len(),
            internal_removed: corpus.flows.len() - shifted.len(),
        },
        "{label}"
    );
    assert_eq!(analyzer.alignment(), alignment.as_ref(), "{label}");
    check_rows(corpus, &analyzer, &shifted, &label);

    let reference = ColumnarFlows::build_enriched_with_capacity(
        &corpus.updates,
        &shifted,
        &MacResolver::build(corpus),
        &OriginTable::build(&corpus.routes),
        corpus.period.end,
        workers,
        capacity,
    );
    assert!(analyzer.columns() == &reference.columns, "{label}: columns");
}

/// Every column of the analyzer's store against row-wise lookups over the
/// oracle's shifted log.
fn check_rows(corpus: &Corpus, analyzer: &Analyzer, shifted: &FlowLog, label: &str) {
    let members = corpus.mac_to_member();
    let mut origins = PrefixTrie::new();
    for &(p, asn) in &corpus.routes {
        origins.insert(p, asn);
    }
    let mut blackholed = PrefixTrie::new();
    for u in corpus.updates.blackholes() {
        blackholed.insert(u.prefix, ());
    }
    let intervals = blackhole_intervals(corpus.updates.updates().iter(), corpus.period.end);
    let mut active: PrefixTrie<&Vec<Interval>> = PrefixTrie::new();
    for (p, ivs) in &intervals {
        active.insert(*p, ivs);
    }
    let covering = |trie: &PrefixTrie<()>, addr| trie.longest_match(addr).map(|(p, _)| p);

    let cols = analyzer.columns();
    let prefixes = analyzer.index().prefixes();
    let pid = |id: u32| (id != NONE).then(|| prefixes[id as usize]);
    let samples = shifted.samples();
    assert_eq!(cols.len(), samples.len(), "{label}: kept rows");
    let mut i = 0;
    for chunk in cols.chunks() {
        assert_eq!(chunk.start(), i, "{label}: chunk start");
        for r in 0..chunk.len() {
            let s: &FlowSample = &samples[i];
            let at = format!("{label}: row {i}");
            assert_eq!(cols.at(i), s.at, "{at}: at");
            assert_eq!(cols.src_ip(i), s.src_ip, "{at}: src_ip");
            assert_eq!(cols.dst_ip(i), s.dst_ip, "{at}: dst_ip");
            assert_eq!(cols.src_port(i), s.src_port, "{at}: src_port");
            assert_eq!(cols.dst_port(i), s.dst_port, "{at}: dst_port");
            assert_eq!(cols.protocol_raw(i), s.protocol.number(), "{at}: protocol");
            assert_eq!(cols.packet_len(i), u32::from(s.packet_len), "{at}");
            assert_eq!(cols.fragment(i), s.fragment, "{at}: fragment");
            assert_eq!(cols.is_dropped(i), s.is_dropped(), "{at}: dropped");
            assert_eq!(
                cols.ingress(i),
                members.get(&s.src_mac).copied(),
                "{at}: ingress"
            );
            let egress = (!s.is_dropped())
                .then(|| members.get(&s.dst_mac).copied())
                .flatten();
            assert_eq!(cols.egress(i), egress, "{at}: egress");
            let origin = origins.longest_match(s.src_ip).map(|(_, &asn)| asn);
            assert_eq!(cols.origin(i), origin, "{at}: origin");
            assert_eq!(
                pid(chunk.dst_prefix_ids()[r]),
                covering(&blackholed, s.dst_ip),
                "{at}: dst_pid"
            );
            assert_eq!(
                pid(chunk.src_prefix_ids()[r]),
                covering(&blackholed, s.src_ip),
                "{at}: src_pid"
            );
            let expected: Option<(Prefix, bool)> =
                active.longest_match(s.dst_ip).map(|(p, ivs)| {
                    let on = ivs.iter().any(|iv| iv.contains(s.at));
                    (p, on)
                });
            assert_eq!(cols.active_prefix(i), expected, "{at}: active");
            i += 1;
        }
    }
    assert_eq!(i, samples.len(), "{label}: rows in chunks");
}

#[test]
fn prepare_matches_the_copying_chain_on_random_corpora() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "prepare_diff",
        test_name: "prepare_matches_the_copying_chain_on_random_corpora",
        base_seed: seeds::FUZZ_PREPARE_DIFF,
    };
    // One case simulates and prepares a whole corpus twice over.
    target.run_capped(4, 40, |_seed, rng| {
        let skew = -10 * i64::from(rng.gen_range(1..=40u32));
        let corpus = corpus(rng.next_u64(), skew);
        let workers = rng.gen_range(1..=3usize);
        let capacity = [64usize, 0][rng.gen_range(0..2usize)];
        check(&corpus, workers, capacity, |_| {});
    });
}

/// A fresh MAC no member port or device uses.
const DEVICE: MacAddr = MacAddr::new([0x0e, 0xee, 0, 0, 0, 1]);

#[test]
fn internal_rows_at_chunk_edges_and_shared_macs() {
    let mut base = corpus(0x5EED_0017, -40);
    let n = base.flows.len();
    assert!(n > 200, "the tiny corpus spans several 64-row chunks");
    // Internal rows at row 0, at the edges of 64-row chunks and at the
    // last row, on either MAC.
    let mut samples = base.flows.samples().to_vec();
    for (k, &row) in [0usize, 63, 64, 127, n - 1].iter().enumerate() {
        if k % 2 == 0 {
            samples[row].src_mac = DEVICE;
        } else {
            samples[row].dst_mac = DEVICE;
        }
    }
    base.flows = FlowLog::from_samples(samples);
    base.internal_macs.push(DEVICE);
    for workers in [1, 2, 3] {
        check(&base, workers, 64, |_| {});
    }

    // A member port also listed as an internal device reads as internal.
    let mut shared = base.clone();
    let port = shared.members[0].macs[0];
    shared.internal_macs.push(port);
    let hits = shared
        .flows
        .samples()
        .iter()
        .filter(|s| s.src_mac == port || s.dst_mac == port)
        .count();
    assert!(hits > 0, "the port carries traffic");
    check(&shared, 2, 64, |_| {});
    let analyzer = Analyzer::new(shared.clone(), AnalyzerConfig::for_corpus(&shared));
    let removed = analyzer.clean_report().internal_removed;
    assert!(removed >= hits, "{removed} removed, {hits} on the port");
}

#[test]
fn every_row_internal_gives_no_chunks() {
    let mut corpus = corpus(0x5EED_0018, -40);
    let samples: Vec<FlowSample> = corpus
        .flows
        .samples()
        .iter()
        .map(|s| FlowSample {
            src_mac: DEVICE,
            ..*s
        })
        .collect();
    corpus.flows = FlowLog::from_samples(samples);
    corpus.internal_macs.push(DEVICE);
    for capacity in [64, 0] {
        check(&corpus, 2, capacity, |_| {});
    }
    let analyzer = Analyzer::new(corpus.clone(), AnalyzerConfig::for_corpus(&corpus));
    assert!(analyzer.columns().chunks().is_empty());
    assert_eq!(analyzer.alignment(), None);
}

#[test]
fn no_internal_rows_zero_skew_and_an_invalid_grid() {
    let mut corpus = corpus(0x5EED_0019, 0);
    corpus.internal_macs.clear();
    check(&corpus, 3, 64, |_| {});
    check(&corpus, 1, 0, |_| {});
    // An offset step of 0 is an invalid grid: no alignment, no shift.
    check(&corpus, 2, 64, |config| {
        config.offset_step = TimeDelta::ZERO
    });
    let mut config = AnalyzerConfig::for_corpus(&corpus);
    config.offset_step = TimeDelta::ZERO;
    assert_eq!(Analyzer::new(corpus, config).alignment(), None);
}

#[test]
fn no_dropped_samples_gives_no_alignment() {
    let mut corpus = corpus(0x5EED_001A, -40);
    let port = corpus.members[0].macs[0];
    let samples: Vec<FlowSample> = corpus
        .flows
        .samples()
        .iter()
        .map(|s| FlowSample {
            dst_mac: if s.is_dropped() { port } else { s.dst_mac },
            ..*s
        })
        .collect();
    corpus.flows = FlowLog::from_samples(samples);
    check(&corpus, 2, 64, |_| {});
    let analyzer = Analyzer::new(corpus.clone(), AnalyzerConfig::for_corpus(&corpus));
    assert_eq!(analyzer.alignment(), None);
}

#[test]
fn a_prefix_without_intervals_inside_one_with_them() {
    let mut corpus = corpus(0x5EED_001B, -40);
    // A destination no blackhole covers yet.
    let mut blackholed = PrefixTrie::new();
    for u in corpus.updates.blackholes() {
        blackholed.insert(u.prefix, ());
    }
    let dst = corpus
        .flows
        .samples()
        .iter()
        .map(|s| s.dst_ip)
        .find(|&d| blackholed.longest_match(d).is_none())
        .expect("unblackholed traffic");
    // Its /16 is blackholed for the whole period; its /32 is announced and
    // withdrawn in the same millisecond, so it is the longest blackholed
    // prefix over `dst` but holds no interval of its own.
    let start = corpus.period.start;
    let update = |len: u8, kind: UpdateKind| BgpUpdate {
        at: start,
        peer: Asn(64_999),
        prefix: Prefix::new(dst, len).unwrap(),
        origin: Asn(64_999),
        kind,
        communities: vec![Community::BLACKHOLE],
        next_hop: Ipv4Addr::new(198, 51, 100, 66),
    };
    let mut updates = corpus.updates.updates().to_vec();
    updates.extend([
        update(16, UpdateKind::Announce),
        update(32, UpdateKind::Announce),
        update(32, UpdateKind::Withdraw),
    ]);
    corpus.updates = UpdateLog::from_updates(updates);
    check(&corpus, 2, 64, |_| {});

    let analyzer = Analyzer::new(corpus.clone(), AnalyzerConfig::for_corpus(&corpus));
    let cols = analyzer.columns();
    let row = (0..cols.len())
        .find(|&i| cols.dst_ip(i) == dst)
        .expect("kept traffic to the destination");
    assert_eq!(
        cols.active_prefix(row).map(|(p, _)| p),
        Some(Prefix::new(dst, 16).unwrap())
    );
}
