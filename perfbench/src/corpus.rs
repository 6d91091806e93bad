//! The benchmark's input: one `ScenarioConfig::scaled(0.25)` corpus,
//! written to a file the way `rtbh simulate` writes it, and the decode
//! steps the `analyze` set-up times.
//!
//! The seed does not change the corpus volume (a different simulator
//! seed moves the sample count by up to a fifth, which would swamp any
//! run-to-run comparison). It sets the data-plane recorder's clock skew,
//! the input the `align` and `shift` kernels depend on, so the same
//! updates and sample volume arrive with a different offset to recover.

use std::path::Path;

use rtbh::bgp::{BgpUpdate, UpdateKind, UpdateLog};
use rtbh::core::Corpus;
use rtbh::fabric::FlowLog;
use rtbh::net::{Asn, Ipv4Addr};
use rtbh::sim::ScenarioConfig;
use rtbh_json::Json;
use rtbh_rng::{ChaChaRng, Rng};

/// Scenario scale every workload runs at.
pub const SCALE: f64 = 0.25;

/// The scenario for a seed: `ScenarioConfig::scaled(0.25)` at its own
/// simulator seed, with a seeded clock skew in `[-400, -10]` ms (never
/// zero, so the shift kernel always runs).
pub fn scenario(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::scaled(SCALE);
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xC10C_0FF5);
    config.clock_offset_ms = -10 * i64::from(rng.gen_range(1..=40u32));
    config
}

/// Simulates the seed's scenario.
pub fn generate(seed: u64) -> Corpus {
    rtbh::sim::run(&scenario(seed)).corpus
}

/// The scenario description for the result record (the event count is
/// the pipeline's own event inference over the update log).
pub fn scenario_json(config: &ScenarioConfig, corpus: &Corpus) -> Json {
    let analyzer = rtbh::core::pipeline::AnalyzerConfig::for_corpus(corpus);
    let events =
        rtbh::core::events::infer_events(&corpus.updates, analyzer.merge_delta, corpus.period.end);
    Json::Obj(vec![
        ("scale".to_string(), Json::F64(SCALE)),
        ("simulator_seed".to_string(), Json::U64(config.seed)),
        (
            "clock_offset_ms".to_string(),
            Json::I64(config.clock_offset_ms),
        ),
        ("days".to_string(), Json::U64(u64::from(config.days))),
        ("members".to_string(), Json::U64(u64::from(config.members))),
        ("events".to_string(), Json::U64(events.len() as u64)),
        (
            "updates".to_string(),
            Json::U64(corpus.updates.len() as u64),
        ),
        ("samples".to_string(), Json::U64(corpus.flows.len() as u64)),
    ])
}

/// The update and flow logs of a section-by-section decode, each or its
/// decoder's message.
pub type Sections = (Result<UpdateLog, String>, Result<FlowLog, String>);

/// Splits the corpus container (`corpus_io`'s documented layout: magic,
/// version, then three u64-length-prefixed sections) and decodes every
/// section with its own public codec: metadata as a JSON tree, then
/// `rtbh_bgp::decode_update_log` and `rtbh_fabric::decode_flow_log`.
/// Each log decoder runs to its end or its first error, so the work done
/// does not depend on whether an earlier section failed.
pub fn decode_sections(raw: &[u8]) -> Result<Sections, String> {
    let rest = raw
        .strip_prefix(b"RTBHCORP")
        .ok_or_else(|| "container: bad magic".to_string())?;
    let mut rest = rest.get(2..).ok_or("container: truncated header")?;
    let mut section = || -> Result<&[u8], String> {
        let (len, tail) = rest
            .split_first_chunk::<8>()
            .ok_or("container: truncated length")?;
        let len = usize::try_from(u64::from_be_bytes(*len)).map_err(|e| e.to_string())?;
        if tail.len() < len {
            return Err("container: truncated section".to_string());
        }
        let (body, tail) = tail.split_at(len);
        rest = tail;
        Ok(body)
    };
    let meta = section()?;
    let mrt = section()?;
    let flows = section()?;
    rtbh_json::from_slice::<Json>(meta).map_err(|e| format!("metadata: {e}"))?;
    Ok((
        rtbh::bgp::decode_update_log(mrt).map_err(|e| format!("update log: {e}")),
        rtbh::fabric::decode_flow_log(flows).map_err(|e| format!("flow log: {e}")),
    ))
}

/// The update log as the BGP wire carries it: a withdrawal has no path
/// attributes (RFC 4271, section 4.3), so its origin, communities and
/// next hop read back as zero and empty. Every other field, and every
/// field of an announcement, must survive the round trip.
pub fn wire_form(log: &UpdateLog) -> UpdateLog {
    let updates = log.updates().iter().map(|u| match u.kind {
        UpdateKind::Announce => u.clone(),
        UpdateKind::Withdraw => BgpUpdate {
            origin: Asn(0),
            communities: Vec::new(),
            next_hop: Ipv4Addr::UNSPECIFIED,
            ..u.clone()
        },
    });
    UpdateLog::from_updates(updates.collect())
}

/// A decode counts as successful only if both logs equal the generated
/// ones, field by field (the corpus digest skips community values, so it
/// is not enough); withdrawals are compared in their [`wire_form`].
pub fn check_logs(updates: &UpdateLog, flows: &FlowLog, generated: &Corpus) -> Result<(), String> {
    if *updates != wire_form(&generated.updates) {
        return Err("decode: update log differs from the generated one".to_string());
    }
    if *flows != generated.flows {
        return Err("decode: flow log differs from the generated one".to_string());
    }
    Ok(())
}

/// The product's decode (`rtbh::corpus_io::from_bytes`, what `rtbh
/// analyze` runs on the file), checked against the generated corpus.
pub fn product_decode(raw: &[u8], generated: &Corpus) -> Result<(), String> {
    match rtbh::corpus_io::from_bytes(raw) {
        Ok(decoded) => check_logs(&decoded.updates, &decoded.flows, generated),
        Err(e) => Err(format!("corpus_io: {e}")),
    }
}

/// Writes `corpus` the way `rtbh simulate` does.
pub fn save(corpus: &Corpus, path: &Path) -> Result<u64, String> {
    rtbh::corpus_io::save(corpus, path).map_err(|e| e.to_string())?;
    Ok(std::fs::metadata(path).map_err(|e| e.to_string())?.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Corpus {
        rtbh::sim::run(&ScenarioConfig::tiny()).corpus
    }

    #[test]
    fn seeds_set_a_nonzero_clock_skew_and_keep_the_scale() {
        let a = scenario(1);
        let b = scenario(1);
        assert_eq!(a, b, "same seed, same scenario");
        for seed in 0..64 {
            let c = scenario(seed);
            assert!((-400..=-10).contains(&c.clock_offset_ms));
            assert_eq!(c.seed, ScenarioConfig::scaled(SCALE).seed);
        }
    }

    #[test]
    fn section_decode_matches_the_product_decode_on_a_clean_corpus() {
        let corpus = tiny();
        let raw = rtbh::corpus_io::to_bytes(&corpus).unwrap();
        let (updates, flows) = decode_sections(&raw).unwrap();
        check_logs(&updates.unwrap(), &flows.unwrap(), &corpus).unwrap();
        assert_eq!(product_decode(&raw, &corpus), Ok(()));
        assert!(decode_sections(&raw[..raw.len() - 1]).is_err());
    }

    #[test]
    fn a_mismatching_log_is_a_failed_decode() {
        let corpus = tiny();
        let mut other = corpus.clone();
        other.flows = FlowLog::from_samples(corpus.flows.samples()[1..].to_vec());
        let raw = rtbh::corpus_io::to_bytes(&other).unwrap();
        let err = product_decode(&raw, &corpus).unwrap_err();
        assert!(err.contains("flow log differs"), "{err}");
    }
}
