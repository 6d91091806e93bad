//! Differential oracles.
//!
//! Each check is a total function: it either returns (property holds) or
//! panics with a message describing the violated invariant. The fuzz driver
//! catches the panic and prints the reproducing seed, so oracles never need
//! to thread errors.
//!
//! Two families:
//!
//! * **round-trip** — valid values from [`crate::gen`] must survive their
//!   codec exactly (`encode → decode → encode` byte equality);
//! * **never-panic + fixpoint** — arbitrary bytes must decode to `Err` or to
//!   a value whose re-encoding is self-consistent. The second decode→encode
//!   leg matters: a decoder that "accepts" garbage into a value its own
//!   encoder cannot reproduce has silently invented data.

use rtbh_bgp::{decode_update, decode_update_log, encode_update, encode_update_log};
use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
use rtbh_fabric::{decode_flow_log, encode_flow_log, FlowLog};
use rtbh_json::Json;
use rtbh_net::{Asn, FrozenLpm, Ipv4Addr, Prefix, PrefixTrie, Timestamp};

/// One update must round-trip through the single-message codec.
///
/// Withdrawals must already be canonical (as [`crate::gen::arb_withdraw`]
/// produces them) — the wire cannot carry more.
pub fn check_update_roundtrip(update: &BgpUpdate) {
    let bytes =
        encode_update(update).unwrap_or_else(|e| panic!("encode of a valid update failed: {e}"));
    let decoded = decode_update(&bytes, update.at, update.peer)
        .unwrap_or_else(|e| panic!("decode of freshly encoded update failed: {e}"));
    assert_eq!(decoded.len(), 1, "one update in, {} out", decoded.len());
    assert_eq!(&decoded[0], update, "update changed across the wire");
    let reencoded = encode_update(&decoded[0]).expect("re-encode of a decoded update");
    assert_eq!(reencoded, bytes, "re-encoding is not byte-identical");
}

/// A full update log must round-trip through the MRT-style framing,
/// byte-identically on the encode side.
pub fn check_update_log_roundtrip(log: &UpdateLog) {
    let bytes =
        encode_update_log(log).unwrap_or_else(|e| panic!("encode of a valid log failed: {e}"));
    let decoded = decode_update_log(&bytes)
        .unwrap_or_else(|e| panic!("decode of freshly encoded log failed: {e}"));
    assert_eq!(&decoded, log, "update log changed across the wire");
    assert_eq!(
        encode_update_log(&decoded).expect("re-encode of a decoded log"),
        bytes,
        "re-encoding is not byte-identical"
    );
}

/// A flow log must round-trip through the IPFIX-lite codec,
/// byte-identically on the encode side.
pub fn check_flow_log_roundtrip(log: &FlowLog) {
    let bytes = encode_flow_log(log);
    let decoded = decode_flow_log(&bytes)
        .unwrap_or_else(|e| panic!("decode of freshly encoded flow log failed: {e}"));
    assert_eq!(&decoded, log, "flow log changed across the wire");
    assert_eq!(
        encode_flow_log(&decoded),
        bytes,
        "re-encoding is not byte-identical"
    );
}

/// A JSON value must reach its serialization fixpoint in one step:
/// `write(parse(write(v))) == write(v)`, for both compact and pretty
/// writers. (Value equality back to `v` is deliberately *not* required —
/// `-0.0` and duplicate-key objects may normalize — but the *text* must be
/// stable, which is what snapshot diffs and on-disk artifacts rely on.)
pub fn check_json_fixpoint(value: &Json) {
    let text = rtbh_json::to_string(value);
    let reparsed: Json = rtbh_json::parse(&text)
        .unwrap_or_else(|e| panic!("writer produced unparseable JSON: {e}\n{text}"));
    assert_eq!(
        rtbh_json::to_string(&reparsed),
        text,
        "compact serialization is not a fixpoint"
    );
    let pretty = rtbh_json::to_string_pretty(&reparsed);
    let from_pretty: Json = rtbh_json::parse(&pretty)
        .unwrap_or_else(|e| panic!("pretty writer produced unparseable JSON: {e}\n{pretty}"));
    assert_eq!(from_pretty, reparsed, "pretty round-trip changed the value");
}

/// Arbitrary bytes fed to the BGP message decoder: must not panic, and on
/// `Ok` every recovered update must itself round-trip.
pub fn check_bgp_bytes(bytes: &[u8]) {
    let at = Timestamp::EPOCH;
    let peer = Asn(64_500);
    if let Ok(updates) = decode_update(bytes, at, peer) {
        for update in &updates {
            // Announcements round-trip one-to-one; a multi-NLRI message
            // splits into several single-NLRI messages, which is fine — each
            // must be self-consistent.
            if update.kind == UpdateKind::Announce || is_canonical_withdraw(update) {
                check_update_roundtrip(update);
            }
        }
    }
}

fn is_canonical_withdraw(update: &BgpUpdate) -> bool {
    update.kind == UpdateKind::Withdraw
        && update.origin == Asn::RESERVED
        && update.communities.is_empty()
        && update.next_hop == Ipv4Addr::UNSPECIFIED
}

/// Arbitrary bytes fed to the MRT-style log decoder: no panic; on `Ok` the
/// recovered log must round-trip.
pub fn check_bgp_log_bytes(bytes: &[u8]) {
    if let Ok(log) = decode_update_log(bytes) {
        check_update_log_roundtrip(&log);
    }
}

/// Arbitrary bytes fed to the flow decoder: no panic; on `Ok` the recovered
/// log must survive its own codec (not necessarily matching the input bytes
/// — a decoded log re-sorts out-of-order records).
pub fn check_flow_bytes(bytes: &[u8]) {
    if let Ok(log) = decode_flow_log(bytes) {
        let reencoded = encode_flow_log(&log);
        let redecoded = decode_flow_log(&reencoded)
            .unwrap_or_else(|e| panic!("re-decode of accepted flow log failed: {e}"));
        assert_eq!(redecoded, log, "accepted flow log is not self-consistent");
    }
}

/// Arbitrary text fed to the JSON parser: no panic (including no stack
/// overflow — the parser's depth limit is load-bearing here); on `Ok` the
/// value must reach its serialization fixpoint.
pub fn check_json_text(text: &str) {
    if let Ok(value) = rtbh_json::parse(text) {
        check_json_fixpoint(&value);
    }
}

/// `FrozenLpm` must agree with the `PrefixTrie` it was built from —
/// see [`check_lpm_equal`].
pub fn check_lpm_against_trie<T: Clone + PartialEq + std::fmt::Debug>(
    trie: &PrefixTrie<T>,
    probes: &[Ipv4Addr],
) {
    check_lpm_equal(trie, &FrozenLpm::from_trie(trie), probes);
}

/// `lpm` must hold exactly the trie's entries — same count, same per-prefix
/// `get`, the same `iter` sequence — and give the same `longest_match`
/// for every probe address, whose value the value-only walk
/// (`longest_value`) must return too.
pub fn check_lpm_equal<T: Clone + PartialEq + std::fmt::Debug>(
    trie: &PrefixTrie<T>,
    lpm: &FrozenLpm<T>,
    probes: &[Ipv4Addr],
) {
    assert_eq!(lpm.len(), trie.len(), "entry count diverged");
    for prefix in trie.prefixes() {
        assert_eq!(lpm.get(prefix), trie.get(prefix), "get({prefix}) diverged");
    }
    for (prefix, value) in lpm.iter() {
        assert_eq!(
            trie.get(prefix),
            Some(value),
            "the LPM table holds {prefix} the trie does not"
        );
    }
    assert!(lpm.iter().eq(trie.iter()), "iteration order diverged");
    for &addr in probes {
        let from_trie = trie.longest_match(addr);
        let from_lpm = lpm.longest_match(addr);
        assert_eq!(
            from_lpm.map(|(p, v)| (p, v.clone())),
            from_trie.map(|(p, v)| (p, v.clone())),
            "longest_match({addr}) diverged"
        );
        assert_eq!(
            lpm.longest_value(addr),
            from_lpm.map(|(_, v)| v),
            "longest_value({addr}) diverged from longest_match"
        );
    }
}

/// Builds a trie from `entries`, applies `removals`, and checks the frozen
/// index against it — the full differential harness used by the fuzz suite.
pub fn check_lpm_scenario<T: Clone + PartialEq + std::fmt::Debug>(
    entries: &[(Prefix, T)],
    removals: &[Prefix],
    probes: &[Ipv4Addr],
) {
    let mut trie = PrefixTrie::new();
    for (prefix, value) in entries {
        trie.insert(*prefix, value.clone());
    }
    for prefix in removals {
        trie.remove(*prefix);
    }
    check_lpm_against_trie(&trie, probes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rtbh_rng::ChaChaRng;

    #[test]
    fn oracles_accept_generated_values() {
        let mut rng = ChaChaRng::seed_from_u64(0x0AC1_E000);
        for _ in 0..50 {
            check_update_roundtrip(&gen::arb_announce(&mut rng));
            check_update_roundtrip(&gen::arb_withdraw(&mut rng));
            check_update_log_roundtrip(&gen::arb_update_log(&mut rng, 12));
            check_flow_log_roundtrip(&gen::arb_flow_log(&mut rng, 12));
            check_json_fixpoint(&gen::arb_json(&mut rng, 4));
        }
    }

    #[test]
    fn lpm_oracle_accepts_random_tables() {
        let mut rng = ChaChaRng::seed_from_u64(0xF0_2E57);
        for _ in 0..20 {
            let entries: Vec<(Prefix, u32)> =
                (0..40).map(|i| (gen::arb_prefix(&mut rng), i)).collect();
            let removals: Vec<Prefix> = entries[..10].iter().map(|(p, _)| *p).collect();
            let probes: Vec<Ipv4Addr> = (0..64).map(|_| gen::arb_addr(&mut rng)).collect();
            check_lpm_scenario(&entries, &removals, &probes);
        }
    }

    #[test]
    #[should_panic(expected = "update changed across the wire")]
    fn oracle_rejects_non_canonical_withdrawals() {
        let mut update = {
            let mut rng = ChaChaRng::seed_from_u64(1234);
            gen::arb_announce(&mut rng)
        };
        update.kind = UpdateKind::Withdraw; // keeps communities: not canonical
        update.communities = vec![rtbh_net::Community::BLACKHOLE];
        check_update_roundtrip(&update);
    }
}
