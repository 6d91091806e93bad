//! A compact binary codec for sampled flow records ("IPFIX-lite").
//!
//! Real IPFIX is template-driven; the paper's collection exports one fixed
//! record shape (§3.1: packet size, MACs, addresses, transport ports), so
//! this codec uses a single fixed 36-byte layout with a small stream header:
//!
//! ```text
//! stream  := magic "RTBHFLOW" | version u16 | count u64 | record*
//! record  := at i64 | src_mac [6] | dst_mac [6] | src_ip u32 | dst_ip u32
//!          | proto u8 | src_port u16 | dst_port u16 | len u16 | flags u8
//! flags   := bit0 = fragment
//! ```
//!
//! All integers are big-endian. Decoding is strict: trailing bytes, bad
//! magic or record-count mismatches are errors.
//!
//! Both directions move whole records: the encoder writes one
//! `[u8; RECORD_LEN]` per sample and the decoder reads each
//! `&[u8; RECORD_LEN]` of the body, both at the fixed field offsets below.
//! The decoder checks time order in the same pass and sorts (stably) only
//! when a record goes back in time; the encoder writes every log in time
//! order, so a file it wrote is taken as it is.

use std::ops::Range;

use rtbh_net::{Ipv4Addr, MacAddr, Protocol, Timestamp};

use crate::flow::{FlowLog, FlowSample};

const MAGIC: &[u8; 8] = b"RTBHFLOW";
const VERSION: u16 = 1;
/// Magic, version and record count.
const HEADER_LEN: usize = 8 + 2 + 8;
const RECORD_LEN: usize = 8 + 6 + 6 + 4 + 4 + 1 + 2 + 2 + 2 + 1;

// Field offsets within a record.
const AT: Range<usize> = 0..8;
const SRC_MAC: Range<usize> = 8..14;
const DST_MAC: Range<usize> = 14..20;
const SRC_IP: Range<usize> = 20..24;
const DST_IP: Range<usize> = 24..28;
const PROTO: usize = 28;
const SRC_PORT: Range<usize> = 29..31;
const DST_PORT: Range<usize> = 31..33;
const PACKET_LEN: Range<usize> = 33..35;
const FLAGS: usize = 35;

/// A decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowWireError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported stream version.
    BadVersion(u16),
    /// The buffer ended before the declared records did.
    Truncated,
    /// Bytes remained after the declared records.
    TrailingBytes(usize),
}

impl std::fmt::Display for FlowWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowWireError::BadMagic => write!(f, "bad magic"),
            FlowWireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FlowWireError::Truncated => write!(f, "truncated flow stream"),
            FlowWireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for FlowWireError {}

/// Encodes a flow log into the IPFIX-lite stream format.
pub fn encode_flow_log(log: &FlowLog) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_flow_log_into(log, &mut buf);
    buf
}

/// Appends the IPFIX-lite encoding of a flow log to `buf`, after reserving
/// room for all of it: the bytes [`encode_flow_log`] returns, written
/// straight into a caller's buffer (a corpus container) with no copy.
pub fn encode_flow_log_into(log: &FlowLog, buf: &mut Vec<u8>) {
    buf.reserve(HEADER_LEN + log.len() * RECORD_LEN);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_be_bytes());
    buf.extend_from_slice(&(log.len() as u64).to_be_bytes());
    for s in log.samples() {
        buf.extend_from_slice(&encode_record(s));
    }
}

fn encode_record(s: &FlowSample) -> [u8; RECORD_LEN] {
    let mut rec = [0u8; RECORD_LEN];
    rec[AT].copy_from_slice(&s.at.as_millis().to_be_bytes());
    rec[SRC_MAC].copy_from_slice(&s.src_mac.octets());
    rec[DST_MAC].copy_from_slice(&s.dst_mac.octets());
    rec[SRC_IP].copy_from_slice(&s.src_ip.to_u32().to_be_bytes());
    rec[DST_IP].copy_from_slice(&s.dst_ip.to_u32().to_be_bytes());
    rec[PROTO] = s.protocol.number();
    rec[SRC_PORT].copy_from_slice(&s.src_port.to_be_bytes());
    rec[DST_PORT].copy_from_slice(&s.dst_port.to_be_bytes());
    rec[PACKET_LEN].copy_from_slice(&s.packet_len.to_be_bytes());
    rec[FLAGS] = u8::from(s.fragment);
    rec
}

/// The bytes of one field; always inlined, so `range` is one of the
/// constant field ranges at every use.
#[inline(always)]
fn field<const N: usize>(rec: &[u8; RECORD_LEN], range: Range<usize>) -> [u8; N] {
    rec[range]
        .try_into()
        .expect("field ranges match their widths")
}

fn decode_record(rec: &[u8; RECORD_LEN]) -> FlowSample {
    FlowSample {
        at: Timestamp::from_millis(i64::from_be_bytes(field(rec, AT))),
        src_mac: MacAddr::new(field(rec, SRC_MAC)),
        dst_mac: MacAddr::new(field(rec, DST_MAC)),
        src_ip: Ipv4Addr::from_u32(u32::from_be_bytes(field(rec, SRC_IP))),
        dst_ip: Ipv4Addr::from_u32(u32::from_be_bytes(field(rec, DST_IP))),
        protocol: Protocol::from_number(rec[PROTO]),
        src_port: u16::from_be_bytes(field(rec, SRC_PORT)),
        dst_port: u16::from_be_bytes(field(rec, DST_PORT)),
        packet_len: u16::from_be_bytes(field(rec, PACKET_LEN)),
        fragment: rec[FLAGS] != 0,
    }
}

/// Decodes an IPFIX-lite stream.
pub fn decode_flow_log(buf: &[u8]) -> Result<FlowLog, FlowWireError> {
    let Some((header, body)) = buf.split_first_chunk::<HEADER_LEN>() else {
        return Err(FlowWireError::Truncated);
    };
    if header[..8] != MAGIC[..] {
        return Err(FlowWireError::BadMagic);
    }
    let version = u16::from_be_bytes([header[8], header[9]]);
    if version != VERSION {
        return Err(FlowWireError::BadVersion(version));
    }
    let count = u64::from_be_bytes(header[10..].try_into().expect("eight count bytes"));
    let count = usize::try_from(count).map_err(|_| FlowWireError::Truncated)?;
    // Checked: a hostile header can declare 2^64 records; the multiply must
    // not wrap into a small number that passes the bounds test.
    let body_len = count
        .checked_mul(RECORD_LEN)
        .ok_or(FlowWireError::Truncated)?;
    if body.len() < body_len {
        return Err(FlowWireError::Truncated);
    }
    if body.len() > body_len {
        return Err(FlowWireError::TrailingBytes(body.len() - body_len));
    }
    let mut prev = i64::MIN;
    let mut in_order = true;
    let samples: Vec<FlowSample> = body
        .chunks_exact(RECORD_LEN)
        .map(|rec| {
            let sample = decode_record(rec.try_into().expect("chunks are whole records"));
            let at = sample.at.as_millis();
            in_order &= prev <= at;
            prev = at;
            sample
        })
        .collect();
    Ok(if in_order {
        FlowLog::from_sorted(samples)
    } else {
        FlowLog::from_samples(samples)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: i64, dropped: bool) -> FlowSample {
        FlowSample {
            at: Timestamp::from_millis(ms),
            src_mac: MacAddr::from_id(7),
            dst_mac: if dropped {
                MacAddr::BLACKHOLE
            } else {
                MacAddr::from_id(9)
            },
            src_ip: "20.0.0.5".parse().unwrap(),
            dst_ip: "203.0.113.7".parse().unwrap(),
            protocol: Protocol::Udp,
            src_port: 389,
            dst_port: 49152,
            packet_len: 1500,
            fragment: ms % 2 == 0,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let log = FlowLog::from_samples((0..100).map(|i| sample(i * 7, i % 3 == 0)).collect());
        let bytes = encode_flow_log(&log);
        assert_eq!(bytes.len(), 18 + 100 * RECORD_LEN);
        let decoded = decode_flow_log(&bytes).unwrap();
        assert_eq!(decoded, log);
        assert_eq!(decoded.dropped().count(), log.dropped().count());
    }

    #[test]
    fn fields_tile_a_36_byte_record() {
        assert_eq!(RECORD_LEN, 36);
        let ends = [
            (AT.start, AT.end),
            (SRC_MAC.start, SRC_MAC.end),
            (DST_MAC.start, DST_MAC.end),
            (SRC_IP.start, SRC_IP.end),
            (DST_IP.start, DST_IP.end),
            (PROTO, PROTO + 1),
            (SRC_PORT.start, SRC_PORT.end),
            (DST_PORT.start, DST_PORT.end),
            (PACKET_LEN.start, PACKET_LEN.end),
            (FLAGS, FLAGS + 1),
        ];
        assert_eq!(ends[0].0, 0);
        for pair in ends.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "fields must be contiguous");
        }
        assert_eq!(ends[ends.len() - 1].1, RECORD_LEN);
    }

    #[test]
    fn empty_log_round_trips() {
        let bytes = encode_flow_log(&FlowLog::new());
        assert_eq!(decode_flow_log(&bytes).unwrap(), FlowLog::new());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = encode_flow_log(&FlowLog::new());
        raw[0] = b'X';
        assert_eq!(decode_flow_log(&raw), Err(FlowWireError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut raw = encode_flow_log(&FlowLog::new());
        raw[9] = 99;
        assert!(matches!(
            decode_flow_log(&raw),
            Err(FlowWireError::BadVersion(99))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_boundary() {
        let log = FlowLog::from_samples(vec![sample(1, true), sample(2, false)]);
        let raw = encode_flow_log(&log);
        for cut in [0usize, 10, 17, 18, 18 + RECORD_LEN - 1, raw.len() - 1] {
            assert_eq!(
                decode_flow_log(&raw[..cut]),
                Err(FlowWireError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = encode_flow_log(&FlowLog::new());
        raw.push(0);
        assert_eq!(decode_flow_log(&raw), Err(FlowWireError::TrailingBytes(1)));
    }

    #[test]
    fn oversized_declared_count_rejected() {
        // A count whose byte size overflows usize must fail cleanly, not
        // wrap around and pass the bounds check.
        let mut raw = encode_flow_log(&FlowLog::new());
        raw[10..18].copy_from_slice(&u64::MAX.to_be_bytes());
        assert_eq!(decode_flow_log(&raw), Err(FlowWireError::Truncated));
    }

    #[test]
    fn protocols_survive_the_u8_funnel() {
        for proto in [
            Protocol::Tcp,
            Protocol::Udp,
            Protocol::Icmp,
            Protocol::Other(47),
        ] {
            let mut s = sample(1, false);
            s.protocol = proto;
            let log = FlowLog::from_samples(vec![s]);
            let decoded = decode_flow_log(&encode_flow_log(&log)).unwrap();
            assert_eq!(decoded.samples()[0].protocol, proto);
        }
    }
}
