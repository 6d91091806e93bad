//! Wire-format codecs: a faithful subset of the BGP UPDATE message
//! (RFC 4271, with 4-octet ASes per RFC 6793 and classic communities per
//! RFC 1997), plus an MRT-style record framing for persisting update logs.
//!
//! The paper's collection pipeline records BGP messages off the route
//! server's feed; a credible open-source release must therefore read and
//! write real message bytes, not only in-memory structs. The codec is
//! self-contained: no `unsafe`, strict bounds checking, and every decode
//! error is typed.

use rtbh_net::cursor::{PutBytes, Reader};
use rtbh_net::{Asn, Community, Ipv4Addr, Prefix, Timestamp};

use crate::update::{BgpUpdate, UpdateKind, UpdateLog};

/// BGP message type code for UPDATE.
const MSG_UPDATE: u8 = 2;
/// Path attribute type codes.
const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_COMMUNITIES: u8 = 8;
/// Attribute flags.
const FLAG_EXTENDED_LENGTH: u8 = 0x10;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_OPTIONAL: u8 = 0x80;
/// Length of the BGP message header (marker, length, type).
const HEADER_LEN: usize = 19;

/// The largest BGP message, header included (RFC 4271 §4).
pub const MAX_MESSAGE_LEN: usize = 4096;
/// AS_PATH segment type.
const AS_SEQUENCE: u8 = 2;

/// A decoding or encoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure did.
    Truncated(&'static str),
    /// A field held an impossible value.
    Invalid(&'static str),
    /// An update would encode to a message of this many bytes, more than
    /// [`MAX_MESSAGE_LEN`] allows.
    Oversized(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "truncated {what}"),
            WireError::Invalid(what) => write!(f, "invalid {what}"),
            WireError::Oversized(len) => write!(
                f,
                "message of {len} bytes exceeds the {MAX_MESSAGE_LEN}-byte limit"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// A length field's value. Every length the encoder writes is bounded by
/// [`MAX_MESSAGE_LEN`], which `encode_update` checks before writing any.
fn len16(len: usize) -> u16 {
    u16::try_from(len).expect("lengths are bounded by the message limit")
}

/// Bytes of a prefix in BGP NLRI form.
fn nlri_len(prefix: Prefix) -> usize {
    1 + prefix.len().div_ceil(8) as usize
}

/// Encodes a prefix in BGP NLRI form: length byte + ceil(len/8) bytes.
fn put_nlri(buf: &mut Vec<u8>, prefix: Prefix) {
    buf.put_u8(prefix.len());
    let octets = prefix.network().octets();
    buf.put_slice(&octets[..prefix.len().div_ceil(8) as usize]);
}

/// Decodes one NLRI prefix.
fn get_nlri(buf: &mut Reader<'_>) -> Result<Prefix, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated("NLRI length"));
    }
    let len = buf.get_u8();
    if len > 32 {
        return Err(WireError::Invalid("NLRI length > 32"));
    }
    let nbytes = len.div_ceil(8) as usize;
    if buf.remaining() < nbytes {
        return Err(WireError::Truncated("NLRI bytes"));
    }
    let mut octets = [0u8; 4];
    buf.copy_to_slice(&mut octets[..nbytes]);
    Prefix::new(
        Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]),
        len,
    )
    .ok_or(WireError::Invalid("NLRI prefix"))
}

/// Appends one path attribute: flags, type code, then a one-octet length,
/// or a two-octet one with the Extended Length flag set when the body
/// exceeds 255 bytes (RFC 4271 §4.3).
fn put_attr(buf: &mut Vec<u8>, flags: u8, code: u8, body: &[u8]) {
    match u8::try_from(body.len()) {
        Ok(len) => {
            buf.put_u8(flags);
            buf.put_u8(code);
            buf.put_u8(len);
        }
        Err(_) => {
            buf.put_u8(flags | FLAG_EXTENDED_LENGTH);
            buf.put_u8(code);
            buf.put_u16(len16(body.len()));
        }
    }
    buf.put_slice(body);
}

/// Encodes one [`BgpUpdate`] as a complete BGP UPDATE message
/// (header + withdrawn routes / path attributes + NLRI).
///
/// Announcements carry ORIGIN, AS_PATH (a one-hop sequence with the origin
/// AS), NEXT_HOP and, when present, COMMUNITIES; withdrawals list the prefix
/// in the withdrawn-routes section. Timestamps and the sending peer are
/// transport-level metadata and live in the MRT framing (see
/// [`encode_update_log`]).
///
/// # Errors
///
/// [`WireError::Oversized`] when the message would exceed
/// [`MAX_MESSAGE_LEN`] bytes — an announcement carrying about a thousand
/// communities.
pub fn encode_update(update: &BgpUpdate) -> Result<Vec<u8>, WireError> {
    let mut body = Vec::with_capacity(64);
    match update.kind {
        UpdateKind::Withdraw => {
            let mut withdrawn = Vec::new();
            put_nlri(&mut withdrawn, update.prefix);
            body.put_u16(len16(withdrawn.len()));
            body.put_slice(&withdrawn);
            body.put_u16(0); // no path attributes
        }
        UpdateKind::Announce => {
            body.put_u16(0); // no withdrawn routes
            let mut attrs = Vec::new();
            // ORIGIN: IGP.
            attrs.put_u8(FLAG_TRANSITIVE);
            attrs.put_u8(ATTR_ORIGIN);
            attrs.put_u8(1);
            attrs.put_u8(0);
            // AS_PATH: one AS_SEQUENCE segment with the origin AS (4 octets).
            attrs.put_u8(FLAG_TRANSITIVE);
            attrs.put_u8(ATTR_AS_PATH);
            attrs.put_u8(2 + 4);
            attrs.put_u8(AS_SEQUENCE);
            attrs.put_u8(1);
            attrs.put_u32(update.origin.value());
            // NEXT_HOP.
            attrs.put_u8(FLAG_TRANSITIVE);
            attrs.put_u8(ATTR_NEXT_HOP);
            attrs.put_u8(4);
            attrs.put_u32(update.next_hop.to_u32());
            // COMMUNITIES (optional transitive), the one attribute whose
            // size varies: the whole message's size is checked before any
            // length field is written (the 4 bytes are the withdrawn-routes
            // and attributes length fields).
            if !update.communities.is_empty() {
                let value_len = 4 * update.communities.len();
                let header_len = if value_len > 255 { 4 } else { 3 };
                let len =
                    HEADER_LEN + 4 + attrs.len() + header_len + value_len + nlri_len(update.prefix);
                if len > MAX_MESSAGE_LEN {
                    return Err(WireError::Oversized(len));
                }
                let mut communities = Vec::with_capacity(value_len);
                for c in &update.communities {
                    communities.put_u32(c.to_u32());
                }
                put_attr(
                    &mut attrs,
                    FLAG_OPTIONAL | FLAG_TRANSITIVE,
                    ATTR_COMMUNITIES,
                    &communities,
                );
            }
            body.put_u16(len16(attrs.len()));
            body.put_slice(&attrs);
            put_nlri(&mut body, update.prefix);
        }
    }
    let len = HEADER_LEN + body.len();
    let mut msg = Vec::with_capacity(len);
    msg.put_slice(&[0xFF; 16]); // marker
    msg.put_u16(len16(len));
    msg.put_u8(MSG_UPDATE);
    msg.put_slice(&body);
    Ok(msg)
}

/// The attributes of a decoded announcement.
struct DecodedAttrs {
    origin_as: Option<Asn>,
    next_hop: Option<Ipv4Addr>,
    communities: Vec<Community>,
}

fn decode_attrs(mut attrs: Reader<'_>) -> Result<DecodedAttrs, WireError> {
    let mut out = DecodedAttrs {
        origin_as: None,
        next_hop: None,
        communities: Vec::new(),
    };
    while attrs.has_remaining() {
        if attrs.remaining() < 3 {
            return Err(WireError::Truncated("attribute header"));
        }
        let flags = attrs.get_u8();
        let code = attrs.get_u8();
        let len = if flags & 0x10 != 0 {
            // Extended length.
            if attrs.remaining() < 2 {
                return Err(WireError::Truncated("extended attribute length"));
            }
            attrs.get_u16() as usize
        } else {
            attrs.get_u8() as usize
        };
        if attrs.remaining() < len {
            return Err(WireError::Truncated("attribute body"));
        }
        let mut value = attrs.take(len);
        match code {
            ATTR_AS_PATH => {
                // Read the last AS of the last segment as the origin.
                while value.has_remaining() {
                    if value.remaining() < 2 {
                        return Err(WireError::Truncated("AS_PATH segment"));
                    }
                    let _seg_type = value.get_u8();
                    let count = value.get_u8() as usize;
                    if value.remaining() < count * 4 {
                        return Err(WireError::Truncated("AS_PATH ASNs"));
                    }
                    for _ in 0..count {
                        out.origin_as = Some(Asn(value.get_u32()));
                    }
                }
            }
            ATTR_NEXT_HOP => {
                if value.remaining() != 4 {
                    return Err(WireError::Invalid("NEXT_HOP length"));
                }
                out.next_hop = Some(Ipv4Addr::from_u32(value.get_u32()));
            }
            ATTR_COMMUNITIES => {
                if value.remaining() % 4 != 0 {
                    return Err(WireError::Invalid("COMMUNITIES length"));
                }
                while value.has_remaining() {
                    out.communities.push(Community::from_u32(value.get_u32()));
                }
            }
            _ => {} // ORIGIN and unknown attributes are skipped.
        }
    }
    Ok(out)
}

/// Decodes one BGP UPDATE message into updates. `at`/`peer` come from the
/// caller's transport framing. One message may carry several withdrawn
/// routes and several NLRI; each becomes its own [`BgpUpdate`].
pub fn decode_update(msg: &[u8], at: Timestamp, peer: Asn) -> Result<Vec<BgpUpdate>, WireError> {
    let mut msg = Reader::new(msg);
    if msg.remaining() < 19 {
        return Err(WireError::Truncated("message header"));
    }
    let mut marker = [0u8; 16];
    msg.copy_to_slice(&mut marker);
    if marker != [0xFF; 16] {
        return Err(WireError::Invalid("marker"));
    }
    let declared = msg.get_u16() as usize;
    if declared < 19 {
        return Err(WireError::Invalid("message length"));
    }
    let kind_byte = msg.get_u8();
    if kind_byte != MSG_UPDATE {
        return Err(WireError::Invalid("message type"));
    }
    if declared - 19 > msg.remaining() {
        return Err(WireError::Truncated("message body"));
    }
    let mut body = msg.take(declared - 19);

    if body.remaining() < 2 {
        return Err(WireError::Truncated("withdrawn length"));
    }
    let withdrawn_len = body.get_u16() as usize;
    if body.remaining() < withdrawn_len {
        return Err(WireError::Truncated("withdrawn routes"));
    }
    let mut withdrawn = body.take(withdrawn_len);
    let mut out = Vec::new();
    while withdrawn.has_remaining() {
        let prefix = get_nlri(&mut withdrawn)?;
        out.push(BgpUpdate {
            at,
            peer,
            prefix,
            origin: Asn::RESERVED,
            kind: UpdateKind::Withdraw,
            communities: Vec::new(),
            next_hop: Ipv4Addr::UNSPECIFIED,
        });
    }

    if body.remaining() < 2 {
        return Err(WireError::Truncated("attributes length"));
    }
    let attrs_len = body.get_u16() as usize;
    if body.remaining() < attrs_len {
        return Err(WireError::Truncated("attributes"));
    }
    let attrs = decode_attrs(body.take(attrs_len))?;
    while body.has_remaining() {
        let prefix = get_nlri(&mut body)?;
        out.push(BgpUpdate {
            at,
            peer,
            prefix,
            origin: attrs
                .origin_as
                .ok_or(WireError::Invalid("missing AS_PATH"))?,
            kind: UpdateKind::Announce,
            communities: attrs.communities.clone(),
            next_hop: attrs
                .next_hop
                .ok_or(WireError::Invalid("missing NEXT_HOP"))?,
        });
    }
    Ok(out)
}

/// MRT-style record framing: `timestamp_ms: i64 | peer: u32 | len: u16 |
/// message bytes`, repeated. Enough to persist and replay an update log
/// byte-exactly.
///
/// # Errors
///
/// The first update [`encode_update`] rejects.
pub fn encode_update_log(log: &UpdateLog) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::new();
    encode_update_log_into(log, &mut buf)?;
    Ok(buf)
}

/// Appends the MRT-style encoding of an update log to `buf`: the bytes
/// [`encode_update_log`] returns, written straight into a caller's buffer
/// (a corpus container) with no copy.
///
/// # Errors
///
/// The first update [`encode_update`] rejects; `buf` is then left as it
/// was.
pub fn encode_update_log_into(log: &UpdateLog, buf: &mut Vec<u8>) -> Result<(), WireError> {
    let start = buf.len();
    for u in log.updates() {
        let msg = match encode_update(u) {
            Ok(msg) => msg,
            Err(e) => {
                buf.truncate(start);
                return Err(e);
            }
        };
        buf.put_i64(u.at.as_millis());
        buf.put_u32(u.peer.value());
        buf.put_u16(len16(msg.len()));
        buf.put_slice(&msg);
    }
    Ok(())
}

/// Decodes an MRT-style stream back into an update log.
///
/// Withdrawals in the wire format carry no origin/communities (BGP does not
/// transmit them); round-tripping a synthetic log therefore canonicalises
/// withdrawals to bare prefix retractions, exactly like a real feed.
pub fn decode_update_log(buf: &[u8]) -> Result<UpdateLog, WireError> {
    let mut buf = Reader::new(buf);
    let mut updates = Vec::new();
    while buf.has_remaining() {
        if buf.remaining() < 14 {
            return Err(WireError::Truncated("record header"));
        }
        let at = Timestamp::from_millis(buf.get_i64());
        let peer = Asn(buf.get_u32());
        let len = buf.get_u16() as usize;
        if buf.remaining() < len {
            return Err(WireError::Truncated("record body"));
        }
        let msg = buf.take(len);
        updates.extend(decode_update(msg.rest(), at, peer)?);
    }
    Ok(UpdateLog::from_updates(updates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_net::TimeDelta;

    fn announce() -> BgpUpdate {
        BgpUpdate {
            at: Timestamp::EPOCH + TimeDelta::minutes(90),
            peer: Asn(64500),
            prefix: "203.0.113.7/32".parse().unwrap(),
            origin: Asn(2001),
            kind: UpdateKind::Announce,
            communities: vec![Community::BLACKHOLE, Community::new(0, 1234)],
            next_hop: "198.51.100.66".parse().unwrap(),
        }
    }

    #[test]
    fn announce_round_trips() {
        let u = announce();
        let bytes = encode_update(&u).unwrap();
        let decoded = decode_update(&bytes, u.at, u.peer).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0], u);
    }

    #[test]
    fn withdraw_round_trips_as_bare_retraction() {
        let mut u = announce();
        u.kind = UpdateKind::Withdraw;
        let bytes = encode_update(&u).unwrap();
        let decoded = decode_update(&bytes, u.at, u.peer).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].prefix, u.prefix);
        assert_eq!(decoded[0].kind, UpdateKind::Withdraw);
        assert!(
            decoded[0].communities.is_empty(),
            "wire withdrawals carry no communities"
        );
    }

    #[test]
    fn nlri_lengths_pack_tightly() {
        for (prefix, expected_bytes) in [
            ("0.0.0.0/0", 1usize),
            ("10.0.0.0/8", 2),
            ("10.20.0.0/15", 3),
            ("10.20.30.0/24", 4),
            ("10.20.30.40/32", 5),
        ] {
            let mut u = announce();
            u.prefix = prefix.parse().unwrap();
            let bytes = encode_update(&u).unwrap();
            // header 19 + withdrawn-len 2 + attrs-len 2
            // + attrs (ORIGIN 4 + AS_PATH 9 + NEXT_HOP 7 + 2 COMMUNITIES 11 = 31)
            // + NLRI (1 length byte + packed network bytes).
            assert_eq!(bytes.len(), 19 + 2 + 2 + 31 + expected_bytes, "{prefix}");
            let decoded = decode_update(&bytes, u.at, u.peer).unwrap();
            assert_eq!(decoded[0].prefix, u.prefix, "{prefix}");
        }
    }

    #[test]
    fn corrupted_marker_rejected() {
        let mut raw = encode_update(&announce()).unwrap();
        raw[0] = 0;
        let err = decode_update(&raw, Timestamp::EPOCH, Asn(1)).unwrap_err();
        assert_eq!(err, WireError::Invalid("marker"));
    }

    #[test]
    fn truncated_message_rejected() {
        let raw = encode_update(&announce()).unwrap();
        for cut in [0, 5, 18, 21, raw.len() - 1] {
            assert!(
                decode_update(&raw[..cut], Timestamp::EPOCH, Asn(1)).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn oversized_nlri_length_rejected() {
        let mut raw = encode_update(&announce()).unwrap();
        let idx = raw.len() - 5; // NLRI length byte of the /32
        assert_eq!(raw[idx], 32);
        raw[idx] = 33;
        let err = decode_update(&raw, Timestamp::EPOCH, Asn(1)).unwrap_err();
        assert_eq!(err, WireError::Invalid("NLRI length > 32"));
    }

    #[test]
    fn log_round_trips_with_canonical_withdrawals() {
        let mut withdraw = announce();
        withdraw.at += TimeDelta::minutes(10);
        withdraw.kind = UpdateKind::Withdraw;
        // Canonical withdrawal (what the wire preserves).
        withdraw.origin = Asn::RESERVED;
        withdraw.communities.clear();
        withdraw.next_hop = Ipv4Addr::UNSPECIFIED;
        let log = UpdateLog::from_updates(vec![announce(), withdraw]);
        let bytes = encode_update_log(&log).unwrap();
        let decoded = decode_update_log(&bytes).unwrap();
        assert_eq!(decoded, log);
    }

    #[test]
    fn empty_log_is_empty_bytes() {
        let log = UpdateLog::new();
        let bytes = encode_update_log(&log).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(decode_update_log(&bytes).unwrap(), log);
    }

    /// An announcement of `n` communities towards `prefix`.
    fn with_communities(prefix: &str, n: usize) -> BgpUpdate {
        BgpUpdate {
            prefix: prefix.parse().unwrap(),
            communities: (0..n).map(|i| Community::new(65_000, i as u16)).collect(),
            ..announce()
        }
    }

    #[test]
    fn communities_past_255_bytes_use_the_extended_length() {
        for n in [63usize, 64, 65, 338, 700] {
            let u = with_communities("203.0.113.7/32", n);
            let bytes = encode_update(&u).unwrap();
            // ORIGIN 4 + AS_PATH 9 + NEXT_HOP 7 precede the COMMUNITIES
            // attribute, which starts 19 + 2 + 2 bytes in.
            let flags = bytes[23 + 20];
            let extended = flags & FLAG_EXTENDED_LENGTH != 0;
            assert_eq!(extended, 4 * n > 255, "{n} communities");
            let header = if extended { 4 } else { 3 };
            assert_eq!(bytes.len(), 19 + 2 + 2 + 20 + header + 4 * n + 5);
            let decoded = decode_update(&bytes, u.at, u.peer).unwrap();
            assert_eq!(decoded, vec![u], "{n} communities");
        }
    }

    #[test]
    fn short_attributes_keep_their_one_octet_length() {
        // 63 communities fill 252 bytes: the last one-octet length.
        let bytes = encode_update(&with_communities("10.0.0.0/8", 63)).unwrap();
        assert_eq!(bytes[23 + 20], FLAG_OPTIONAL | FLAG_TRANSITIVE);
        assert_eq!(bytes[23 + 22], 252);
    }

    #[test]
    fn messages_past_4096_bytes_are_a_typed_error() {
        // A /32 announcement spends 52 bytes besides the communities
        // (header 19, lengths 4, attributes 20 + 4, NLRI 5): 1011 fit.
        let max = (MAX_MESSAGE_LEN - 52) / 4;
        let fits = encode_update(&with_communities("203.0.113.7/32", max)).unwrap();
        assert_eq!(fits.len(), MAX_MESSAGE_LEN);
        let over = with_communities("203.0.113.7/32", max + 1);
        assert_eq!(
            encode_update(&over),
            Err(WireError::Oversized(MAX_MESSAGE_LEN + 4))
        );
        let log = UpdateLog::from_updates(vec![announce(), over]);
        assert_eq!(
            encode_update_log(&log),
            Err(WireError::Oversized(MAX_MESSAGE_LEN + 4))
        );
    }
}
