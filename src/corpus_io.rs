//! Corpus persistence: a single-file container combining JSON metadata with
//! the binary wire codecs.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! "RTBHCORP" | version u16 | meta_len u64 | meta JSON
//!            | mrt_len u64 | MRT update log | flow_len u64 | IPFIX-lite flows
//! ```
//!
//! The metadata JSON holds everything except the two logs (period, sampling
//! rate, members, registry, routes, internal MACs); the logs use the compact
//! binary codecs from [`rtbh_bgp::wire`] and [`rtbh_fabric::wire`], which
//! keeps a paper-scale corpus (≈7M samples) around a quarter of a gigabyte
//! instead of multi-GB JSON.

use rtbh_net::cursor::{PutBytes, Reader};

use crate::core::corpus::{Corpus, MemberInfo};
use crate::net::{Asn, Interval, MacAddr, Prefix};
use crate::peeringdb::Registry;

const MAGIC: &[u8; 8] = b"RTBHCORP";
const VERSION: u16 = 1;

/// Everything in a corpus except the two logs.
struct Meta {
    period: Interval,
    sampling_rate: u32,
    route_server_asn: Asn,
    members: Vec<MemberInfo>,
    registry: Registry,
    internal_macs: Vec<MacAddr>,
    routes: Vec<(Prefix, Asn)>,
}

rtbh_json::impl_json! {
    struct Meta {
        period, sampling_rate, route_server_asn, members, registry,
        internal_macs, routes,
    }
}

/// A persistence failure.
#[derive(Debug)]
pub enum CorpusIoError {
    /// Bad container framing.
    Container(String),
    /// Metadata (de)serialization failed.
    Meta(rtbh_json::JsonError),
    /// The update-log section failed to encode or decode.
    Updates(rtbh_bgp::WireError),
    /// The flow-log section failed to decode.
    Flows(rtbh_fabric::FlowWireError),
    /// Filesystem trouble.
    Io(std::io::Error),
}

impl std::fmt::Display for CorpusIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusIoError::Container(msg) => write!(f, "container: {msg}"),
            CorpusIoError::Meta(e) => write!(f, "metadata: {e}"),
            CorpusIoError::Updates(e) => write!(f, "update log: {e}"),
            CorpusIoError::Flows(e) => write!(f, "flow log: {e}"),
            CorpusIoError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for CorpusIoError {}

impl From<std::io::Error> for CorpusIoError {
    fn from(e: std::io::Error) -> Self {
        CorpusIoError::Io(e)
    }
}

/// Serializes a corpus into the container format.
pub fn to_bytes(corpus: &Corpus) -> Result<Vec<u8>, CorpusIoError> {
    let meta = Meta {
        period: corpus.period,
        sampling_rate: corpus.sampling_rate,
        route_server_asn: corpus.route_server_asn,
        members: corpus.members.clone(),
        registry: corpus.registry.clone(),
        internal_macs: corpus.internal_macs.clone(),
        routes: corpus.routes.clone(),
    };
    let meta_json = rtbh_json::to_vec(&meta);

    // The two logs are encoded straight into the container, each behind a
    // length field patched once the section is written.
    let mut buf = Vec::with_capacity(34 + meta_json.len());
    buf.put_slice(MAGIC);
    buf.put_u16(VERSION);
    buf.put_u64(meta_json.len() as u64);
    buf.put_slice(&meta_json);
    put_section(&mut buf, |buf| {
        rtbh_bgp::encode_update_log_into(&corpus.updates, buf)
    })
    .map_err(CorpusIoError::Updates)?;
    put_section(&mut buf, |buf| {
        rtbh_fabric::encode_flow_log_into(&corpus.flows, buf)
    });
    Ok(buf)
}

/// Appends a section: a u64 length field, then the body `write` appends,
/// whose length is patched into the field afterwards.
fn put_section<T>(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>) -> T) -> T {
    let at = buf.len();
    buf.put_u64(0);
    let out = write(buf);
    let len = (buf.len() - at - 8) as u64;
    buf[at..at + 8].copy_from_slice(&len.to_be_bytes());
    out
}

fn take_section<'a>(buf: &mut Reader<'a>, what: &str) -> Result<&'a [u8], CorpusIoError> {
    if buf.remaining() < 8 {
        return Err(CorpusIoError::Container(format!("truncated {what} length")));
    }
    let len = usize::try_from(buf.get_u64())
        .map_err(|_| CorpusIoError::Container(format!("oversized {what} length")))?;
    if buf.remaining() < len {
        return Err(CorpusIoError::Container(format!("truncated {what}")));
    }
    Ok(buf.take(len).rest())
}

/// Deserializes a corpus from the container format.
pub fn from_bytes(buf: &[u8]) -> Result<Corpus, CorpusIoError> {
    let mut buf = Reader::new(buf);
    if buf.remaining() < 10 {
        return Err(CorpusIoError::Container("truncated header".into()));
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CorpusIoError::Container("bad magic".into()));
    }
    let version = buf.get_u16();
    if version != VERSION {
        return Err(CorpusIoError::Container(format!(
            "unsupported version {version}"
        )));
    }
    let meta_json = take_section(&mut buf, "metadata")?;
    let meta: Meta = rtbh_json::from_slice(meta_json).map_err(CorpusIoError::Meta)?;
    let mrt = take_section(&mut buf, "update log")?;
    let updates = rtbh_bgp::decode_update_log(mrt).map_err(CorpusIoError::Updates)?;
    let flows_bytes = take_section(&mut buf, "flow log")?;
    let flows = rtbh_fabric::decode_flow_log(flows_bytes).map_err(CorpusIoError::Flows)?;
    if buf.has_remaining() {
        return Err(CorpusIoError::Container(format!(
            "{} trailing bytes",
            buf.remaining()
        )));
    }
    Ok(Corpus {
        period: meta.period,
        sampling_rate: meta.sampling_rate,
        route_server_asn: meta.route_server_asn,
        updates,
        flows,
        members: meta.members,
        registry: meta.registry,
        internal_macs: meta.internal_macs,
        routes: meta.routes,
        caches: Default::default(),
    })
}

/// Writes a corpus to a file.
pub fn save(corpus: &Corpus, path: &std::path::Path) -> Result<(), CorpusIoError> {
    let bytes = to_bytes(corpus)?;
    std::fs::write(path, &bytes)?;
    Ok(())
}

/// Reads a corpus from a file.
pub fn load(path: &std::path::Path) -> Result<Corpus, CorpusIoError> {
    let raw = std::fs::read(path)?;
    from_bytes(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ScenarioConfig;

    fn small_corpus() -> Corpus {
        let mut config = ScenarioConfig::tiny();
        config.visible_attack_events = 3;
        config.constant_events = 2;
        config.invisible_events = 2;
        config.zombie_events = 2;
        config.squatting = (1, 1);
        crate::sim::run(&config).corpus
    }

    /// Byte offset of a section's u64 length field within an encoded corpus.
    ///
    /// `section` is 0 for metadata, 1 for the update log, 2 for the flow log.
    fn length_field_offset(bytes: &[u8], section: usize) -> usize {
        let mut offset = 10; // magic + version
        for _ in 0..section {
            let len = u64::from_be_bytes(bytes[offset..offset + 8].try_into().unwrap());
            offset += 8 + len as usize;
        }
        offset
    }

    /// Wire withdrawals don't carry origin/communities, so round-tripping
    /// canonicalises them; everything the analysis consumes must survive.
    #[test]
    fn round_trip_preserves_analysis_inputs() {
        let corpus = small_corpus();
        let bytes = to_bytes(&corpus).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.period, corpus.period);
        assert_eq!(back.sampling_rate, corpus.sampling_rate);
        assert_eq!(back.members, corpus.members);
        assert_eq!(back.routes, corpus.routes);
        assert_eq!(back.flows, corpus.flows);
        assert_eq!(back.updates.len(), corpus.updates.len());
        for (a, b) in back.updates.updates().iter().zip(corpus.updates.updates()) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.peer, b.peer);
            assert_eq!(a.prefix, b.prefix);
            assert_eq!(a.kind, b.kind);
            if a.is_announce() {
                assert_eq!(a, b, "announcements must round-trip exactly");
            }
        }
        // The analysis produces identical events on both corpora.
        let ev_a = crate::core::events::infer_events(
            &back.updates,
            crate::net::TimeDelta::minutes(10),
            back.period.end,
        );
        let ev_b = crate::core::events::infer_events(
            &corpus.updates,
            crate::net::TimeDelta::minutes(10),
            corpus.period.end,
        );
        assert_eq!(ev_a.len(), ev_b.len());
        for (x, y) in ev_a.iter().zip(&ev_b) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.spans, y.spans);
        }
    }

    #[test]
    fn corrupted_container_is_rejected() {
        let corpus = small_corpus();
        let bytes = to_bytes(&corpus).unwrap();
        // Bad magic.
        let mut raw = bytes.clone();
        raw[0] = b'X';
        assert!(matches!(from_bytes(&raw), Err(CorpusIoError::Container(_))));
        // Truncations at several depths.
        for cut in [5usize, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut raw = bytes.clone();
        raw.push(7);
        assert!(matches!(from_bytes(&raw), Err(CorpusIoError::Container(_))));
    }

    /// Truncating the container inside each section's u64 length field must
    /// fail with a framing error, not a panic.
    #[test]
    fn truncated_length_fields_rejected() {
        let corpus = small_corpus();
        let bytes = to_bytes(&corpus).unwrap();
        for section in 0..3 {
            let offset = length_field_offset(&bytes, section);
            for inside in [0usize, 1, 7] {
                let cut = offset + inside;
                assert!(
                    matches!(from_bytes(&bytes[..cut]), Err(CorpusIoError::Container(_))),
                    "section {section} cut at {cut}"
                );
            }
        }
    }

    /// A section length larger than the remaining buffer (including one that
    /// would overflow usize) must be rejected cleanly.
    #[test]
    fn oversized_declared_lengths_rejected() {
        let corpus = small_corpus();
        let bytes = to_bytes(&corpus).unwrap();
        for section in 0..3 {
            let offset = length_field_offset(&bytes, section);
            for declared in [bytes.len() as u64 + 1, u64::MAX] {
                let mut raw = bytes.clone();
                raw[offset..offset + 8].copy_from_slice(&declared.to_be_bytes());
                assert!(
                    matches!(from_bytes(&raw), Err(CorpusIoError::Container(_))),
                    "section {section} declared {declared}"
                );
            }
        }
    }

    /// Corrupting the magic of an inner binary section surfaces that
    /// section's decode error.
    #[test]
    fn corrupt_section_magic_reported_per_section() {
        let corpus = small_corpus();
        let bytes = to_bytes(&corpus).unwrap();
        // Update log: records are framed as timestamp(8) + peer(4) + len(2)
        // followed by the BGP message, whose 16-byte marker is all-ones.
        // Corrupting the marker's first byte must surface as a decode error.
        let mrt_start = length_field_offset(&bytes, 1) + 8;
        let mut raw = bytes.clone();
        raw[mrt_start + 14] ^= 0xFF;
        assert!(
            matches!(from_bytes(&raw), Err(CorpusIoError::Updates(_))),
            "corrupt update-log magic must be an Updates error"
        );
        // Flow log likewise.
        let flow_start = length_field_offset(&bytes, 2) + 8;
        let mut raw = bytes.clone();
        raw[flow_start] ^= 0xFF;
        assert!(
            matches!(from_bytes(&raw), Err(CorpusIoError::Flows(_))),
            "corrupt flow-log magic must be a Flows error"
        );
        // Metadata: flipping its first byte breaks the JSON.
        let meta_start = length_field_offset(&bytes, 0) + 8;
        let mut raw = bytes.clone();
        raw[meta_start] = b'X';
        assert!(
            matches!(from_bytes(&raw), Err(CorpusIoError::Meta(_))),
            "corrupt metadata must be a Meta error"
        );
    }

    /// Scale 0.02 is the smallest scenario whose targeted announcements
    /// carry 64 or more communities — a COMMUNITIES attribute past 255
    /// bytes. The saved file must reload every update field by field and
    /// analyze to the in-memory report's exact bytes. (`Corpus::digest`
    /// hashes only community counts, so it could not tell.)
    #[test]
    fn scale_0_02_file_reloads_every_update_and_the_same_report() {
        let corpus = crate::sim::run(&ScenarioConfig::scaled(0.02)).corpus;
        assert!(
            corpus
                .updates
                .updates()
                .iter()
                .any(|u| u.communities.len() >= 64),
            "the scenario must exercise the extended attribute length"
        );
        let dir = std::env::temp_dir().join(format!("rtbh-corpus-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scale-0.02.rtbh");
        save(&corpus, &path).unwrap();
        let back = load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(back.flows, corpus.flows);
        assert_eq!(back.updates.len(), corpus.updates.len());
        for (i, (got, sent)) in back
            .updates
            .updates()
            .iter()
            .zip(corpus.updates.updates())
            .enumerate()
        {
            // Wire withdrawals are bare retractions, as the decoder documents.
            let expected = match sent.kind {
                crate::bgp::UpdateKind::Announce => sent.clone(),
                crate::bgp::UpdateKind::Withdraw => crate::bgp::BgpUpdate {
                    origin: Asn::RESERVED,
                    communities: Vec::new(),
                    next_hop: crate::net::Ipv4Addr::UNSPECIFIED,
                    ..sent.clone()
                },
            };
            assert_eq!(*got, expected, "update {i}");
        }
        let report =
            |c: Corpus| rtbh_json::to_vec_pretty(&crate::core::Analyzer::with_defaults(c).full());
        assert!(report(back) == report(corpus), "reloaded report differs");
    }

    /// FNV-1a over raw bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// One record per protocol byte 0–255: fragment set and clear, the
    /// blackhole MAC and member MACs, ports and lengths 0 through 65535,
    /// and timestamps at `i64::MIN`, below zero, in runs of equal values
    /// (whose order the stable sort keeps) and at `i64::MAX`.
    fn edge_case_flow_log() -> crate::fabric::FlowLog {
        use crate::fabric::{FlowLog, FlowSample};
        use crate::net::{Ipv4Addr, Protocol, Timestamp};
        let samples = (0..=255u8)
            .map(|b| {
                let at = match b {
                    0..=3 => i64::MIN,
                    4..=63 => -1_000 * i64::from(b),
                    252..=255 => i64::MAX,
                    _ => 60_000 * i64::from(b / 8),
                };
                let wide = u16::from(b) * 257;
                FlowSample {
                    at: Timestamp::from_millis(at),
                    src_mac: MacAddr::new([0x02, b, !b, 0, 1, b]),
                    dst_mac: if b % 5 == 0 {
                        MacAddr::BLACKHOLE
                    } else {
                        MacAddr::new([0x02, 0, 0, !b, b, 0xff])
                    },
                    src_ip: Ipv4Addr::from_u32(u32::from(b) << 24 | 0x00ab_cdef),
                    dst_ip: Ipv4Addr::from_u32(u32::MAX - u32::from(b) * 0x0101_0101),
                    protocol: Protocol::from_number(b),
                    src_port: wide,
                    dst_port: u16::MAX - wide,
                    packet_len: wide.rotate_left(3),
                    fragment: b % 2 == 1,
                }
            })
            .collect();
        FlowLog::from_samples(samples)
    }

    /// The corpus file format, pinned: the bytes `rtbh simulate --tiny`
    /// writes and the IPFIX-lite bytes of an edge-case flow log must hash
    /// to these constants. A codec rewrite must leave both untouched.
    /// (`Corpus::digest` skips the MACs, the protocol and the fragment
    /// flag, so it could not tell.)
    #[test]
    fn the_file_format_is_pinned() {
        let tiny = to_bytes(&crate::sim::run(&ScenarioConfig::tiny()).corpus).unwrap();
        assert_eq!(
            (tiny.len(), format!("{:#018x}", fnv1a(&tiny))),
            (1_292_688, "0x76320960428febb2".to_string()),
            "--tiny corpus file"
        );
        let flows = rtbh_fabric::encode_flow_log(&edge_case_flow_log());
        assert_eq!(
            (flows.len(), format!("{:#018x}", fnv1a(&flows))),
            (18 + 256 * 36, "0x32b2c1bb743f25f1".to_string()),
            "edge-case flow log"
        );
    }

    #[test]
    fn file_round_trip() {
        let corpus = small_corpus();
        let dir = std::env::temp_dir().join("rtbh-corpus-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.rtbh");
        save(&corpus, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.flows, corpus.flows);
        std::fs::remove_file(&path).ok();
    }
}
