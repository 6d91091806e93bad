//! Differential fuzz: the record-at-a-time IPFIX-lite codec
//! (`rtbh_fabric::wire`) against the field-at-a-time codec it replaced,
//! which lives on only here as the oracle — a bounds-checked `Reader` call
//! per field on decode, a `PutBytes` call per field on encode, and a
//! stable sort of every decoded log.
//!
//! Both decoders must return equal `Result`s, values and error variants
//! alike, and both encoders byte-identical streams, on: generated logs,
//! time-sorted and shuffled with runs of equal timestamps (so the
//! product's stable-sort fallback runs); every flags and protocol byte
//! 0–255; every truncation offset of a 3-record stream; 1–40 trailing
//! bytes; a count of `u64::MAX`, counts whose byte size overflows and
//! counts above or below the records present; bad magic and versions; and
//! mutated streams.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_fabric::{decode_flow_log, encode_flow_log, FlowLog, FlowSample, FlowWireError};
use rtbh_net::cursor::{PutBytes, Reader};
use rtbh_net::{Ipv4Addr, MacAddr, Protocol, Timestamp};
use rtbh_rng::{Rng, SliceRandom};
use rtbh_testkit::{gen, mutate, FuzzTarget};

const HEADER_LEN: usize = 18;
const RECORD_LEN: usize = 36;
/// Offset of the flags byte within a record.
const FLAGS: usize = 35;
/// Offset of the protocol byte within a record.
const PROTO: usize = 28;

/// The oracle's stream: the header, then the records in the given order.
fn oracle_encode_records(samples: &[FlowSample]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + samples.len() * RECORD_LEN);
    buf.put_slice(b"RTBHFLOW");
    buf.put_u16(1);
    buf.put_u64(samples.len() as u64);
    for s in samples {
        buf.put_i64(s.at.as_millis());
        buf.put_slice(&s.src_mac.octets());
        buf.put_slice(&s.dst_mac.octets());
        buf.put_u32(s.src_ip.to_u32());
        buf.put_u32(s.dst_ip.to_u32());
        buf.put_u8(s.protocol.number());
        buf.put_u16(s.src_port);
        buf.put_u16(s.dst_port);
        buf.put_u16(s.packet_len);
        buf.put_u8(s.fragment as u8);
    }
    buf
}

fn oracle_decode(buf: &[u8]) -> Result<FlowLog, FlowWireError> {
    let mut buf = Reader::new(buf);
    if buf.remaining() < HEADER_LEN {
        return Err(FlowWireError::Truncated);
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != b"RTBHFLOW" {
        return Err(FlowWireError::BadMagic);
    }
    let version = buf.get_u16();
    if version != 1 {
        return Err(FlowWireError::BadVersion(version));
    }
    let count = usize::try_from(buf.get_u64()).map_err(|_| FlowWireError::Truncated)?;
    let body_len = count
        .checked_mul(RECORD_LEN)
        .ok_or(FlowWireError::Truncated)?;
    if buf.remaining() < body_len {
        return Err(FlowWireError::Truncated);
    }
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let at = Timestamp::from_millis(buf.get_i64());
        let mut src_mac = [0u8; 6];
        buf.copy_to_slice(&mut src_mac);
        let mut dst_mac = [0u8; 6];
        buf.copy_to_slice(&mut dst_mac);
        samples.push(FlowSample {
            at,
            src_mac: MacAddr::new(src_mac),
            dst_mac: MacAddr::new(dst_mac),
            src_ip: Ipv4Addr::from_u32(buf.get_u32()),
            dst_ip: Ipv4Addr::from_u32(buf.get_u32()),
            protocol: Protocol::from_number(buf.get_u8()),
            src_port: buf.get_u16(),
            dst_port: buf.get_u16(),
            packet_len: buf.get_u16(),
            fragment: buf.get_u8() != 0,
        });
    }
    if buf.has_remaining() {
        return Err(FlowWireError::TrailingBytes(buf.remaining()));
    }
    Ok(FlowLog::from_samples(samples))
}

/// Both decoders give the same answer on `bytes`; returns it.
fn decode_alike(bytes: &[u8], what: &str) -> Result<FlowLog, FlowWireError> {
    let product = decode_flow_log(bytes);
    assert_eq!(product, oracle_decode(bytes), "{what}: decoders disagree");
    product
}

/// Both encoders write the same bytes for `log`; returns them.
fn encode_alike(log: &FlowLog) -> Vec<u8> {
    let bytes = encode_flow_log(log);
    assert!(
        bytes == oracle_encode_records(log.samples()),
        "encoders disagree"
    );
    bytes
}

fn target(test_name: &'static str) -> FuzzTarget {
    FuzzTarget {
        package: "rtbh-testkit",
        test_file: "flow_codec_diff",
        test_name,
        base_seed: seeds::FUZZ_FLOW_CODEC_DIFF,
    }
}

/// Up to 40 generated samples whose timestamps come from a pool of one to
/// five instants, so most logs hold runs of equal timestamps.
fn samples_with_equal_runs<R: Rng>(rng: &mut R) -> Vec<FlowSample> {
    let pool: Vec<Timestamp> = (0..rng.gen_range(1..=5usize))
        .map(|_| gen::arb_timestamp(rng))
        .collect();
    (0..rng.gen_range(0..=40usize))
        .map(|_| FlowSample {
            at: pool[rng.gen_range(0..pool.len())],
            ..gen::arb_flow_sample(rng)
        })
        .collect()
}

#[test]
fn generated_logs_decode_and_encode_alike() {
    target("generated_logs_decode_and_encode_alike").run(1500, |_, rng| {
        let mut samples = samples_with_equal_runs(rng);
        let sorted = FlowLog::from_samples(samples.clone());
        let bytes = encode_alike(&sorted);
        assert_eq!(decode_alike(&bytes, "sorted log"), Ok(sorted));

        // Written out of time order (as no encoder does), the records must
        // come back stably sorted: equal timestamps keep their order.
        samples.shuffle(rng);
        let shuffled = oracle_encode_records(&samples);
        let decoded = decode_alike(&shuffled, "shuffled log").expect("a whole stream");
        assert_eq!(decoded, FlowLog::from_samples(samples));
        let reencoded = encode_alike(&decoded);
        assert_eq!(decode_alike(&reencoded, "re-encoded log"), Ok(decoded));

        // A few mutations of either stream: same answer from both.
        let mut mutated = if rng.gen_bool(0.5) { bytes } else { shuffled };
        let hits = rng.gen_range(1..=4usize);
        mutate::mutate_n(rng, &mut mutated, hits);
        let _ = decode_alike(&mutated, "mutated stream");
    });
}

/// A 3-record stream with distinct timestamps.
fn three_records() -> Vec<u8> {
    let samples = [1_000, -5, i64::MAX].map(|ms| FlowSample {
        at: Timestamp::from_millis(ms),
        src_mac: MacAddr::from_id(3),
        dst_mac: MacAddr::BLACKHOLE,
        src_ip: Ipv4Addr::new(198, 51, 100, 7),
        dst_ip: Ipv4Addr::new(203, 0, 113, 9),
        protocol: Protocol::Udp,
        src_port: 123,
        dst_port: 65535,
        packet_len: 468,
        fragment: ms < 0,
    });
    encode_alike(&FlowLog::from_samples(samples.to_vec()))
}

#[test]
fn every_flags_and_protocol_byte_decodes_alike() {
    let base = three_records();
    for record in 0..3 {
        let at = HEADER_LEN + record * RECORD_LEN;
        for byte in 0..=255u8 {
            let mut raw = base.clone();
            raw[at + FLAGS] = byte;
            let log = decode_alike(&raw, "flags byte").expect("a whole stream");
            assert_eq!(log.samples()[record].fragment, byte != 0);

            let mut raw = base.clone();
            raw[at + PROTO] = byte;
            let log = decode_alike(&raw, "protocol byte").expect("a whole stream");
            let protocol = log.samples()[record].protocol;
            assert_eq!(protocol, Protocol::from_number(byte));
            assert_eq!(protocol.number(), byte);
        }
    }
}

#[test]
fn every_truncation_of_a_three_record_stream_decodes_alike() {
    let raw = three_records();
    for cut in 0..raw.len() {
        assert_eq!(
            decode_alike(&raw[..cut], "truncated stream"),
            Err(FlowWireError::Truncated),
            "cut {cut}"
        );
    }
    assert_eq!(decode_alike(&raw, "whole stream").map(|l| l.len()), Ok(3));
}

#[test]
fn trailing_bytes_decode_alike() {
    for base in [encode_alike(&FlowLog::new()), three_records()] {
        for extra in 1..=40usize {
            let mut raw = base.clone();
            raw.extend((0..extra).map(|i| i as u8));
            assert_eq!(
                decode_alike(&raw, "trailing bytes"),
                Err(FlowWireError::TrailingBytes(extra))
            );
        }
    }
}

#[test]
fn hostile_counts_decode_alike() {
    let raw = three_records();
    let overflow = (usize::MAX / RECORD_LEN) as u64 + 1;
    for (count, expected) in [
        (u64::MAX, Err(FlowWireError::Truncated)),
        (overflow, Err(FlowWireError::Truncated)),
        (overflow + 7, Err(FlowWireError::Truncated)),
        (u64::MAX / 2, Err(FlowWireError::Truncated)),
        (4, Err(FlowWireError::Truncated)),
        (1 << 40, Err(FlowWireError::Truncated)),
        (2, Err(FlowWireError::TrailingBytes(RECORD_LEN))),
        (0, Err(FlowWireError::TrailingBytes(3 * RECORD_LEN))),
    ] {
        let mut hostile = raw.clone();
        hostile[10..18].copy_from_slice(&count.to_be_bytes());
        assert_eq!(
            decode_alike(&hostile, "hostile count"),
            expected,
            "count {count}"
        );
    }
}

#[test]
fn bad_magic_and_versions_decode_alike() {
    let raw = three_records();
    for at in 0..8 {
        let mut bad = raw.clone();
        bad[at] ^= 0x20;
        assert_eq!(
            decode_alike(&bad, "bad magic"),
            Err(FlowWireError::BadMagic)
        );
    }
    for version in [0u16, 2, 0x0100, u16::MAX] {
        let mut bad = raw.clone();
        bad[8..10].copy_from_slice(&version.to_be_bytes());
        assert_eq!(
            decode_alike(&bad, "bad version"),
            Err(FlowWireError::BadVersion(version))
        );
    }
    // A short header is truncated before its magic is read.
    assert_eq!(
        decode_alike(b"XXXXXXXX", "short header"),
        Err(FlowWireError::Truncated)
    );
}
