//! Deterministic fuzz suite for the BGP wire codec (`rtbh_bgp::wire`).
//!
//! Round-trip targets feed *valid* generated updates through
//! encode→decode→encode; hardening targets feed mutated and pure-garbage
//! bytes through the decoders, which must reject or produce
//! self-consistent values — never panic.
//!
//! Every failure prints a `RTBH_FUZZ_SEED=…` reproduction command.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_rng::Rng;
use rtbh_testkit::{gen, mutate, oracle, FuzzTarget};

fn target(test_name: &'static str, base_seed: u64) -> FuzzTarget {
    FuzzTarget {
        package: "rtbh-testkit",
        test_file: "fuzz_bgp",
        test_name,
        base_seed,
    }
}

#[test]
fn update_roundtrip() {
    target("update_roundtrip", seeds::FUZZ_BGP_UPDATE_ROUNDTRIP).run(1200, |_, rng| {
        oracle::check_update_roundtrip(&gen::arb_update(rng));
    });
}

#[test]
fn log_roundtrip() {
    target("log_roundtrip", seeds::FUZZ_BGP_LOG_ROUNDTRIP).run(1000, |_, rng| {
        oracle::check_update_log_roundtrip(&gen::arb_update_log(rng, 8));
    });
}

#[test]
fn one_community_past_the_message_limit_is_a_typed_error() {
    target(
        "one_community_past_the_message_limit_is_a_typed_error",
        seeds::FUZZ_BGP_OVERSIZED,
    )
    .run(300, |_, rng| {
        let mut update = gen::arb_announce(rng);
        let max = gen::max_communities(update.prefix);
        update.communities = (0..max).map(|_| gen::arb_community(rng)).collect();
        let limit = rtbh_bgp::wire::MAX_MESSAGE_LEN;
        let len = rtbh_bgp::encode_update(&update)
            .expect("the largest count fits")
            .len();
        assert!(limit - 4 < len && len <= limit, "{len} bytes");
        oracle::check_update_roundtrip(&update);
        update.communities.push(gen::arb_community(rng));
        assert_eq!(
            rtbh_bgp::encode_update(&update),
            Err(rtbh_bgp::WireError::Oversized(len + 4))
        );
    });
}

#[test]
fn mutated_messages_never_panic() {
    target("mutated_messages_never_panic", seeds::FUZZ_BGP_MSG_MUTATED).run(1200, |_, rng| {
        let mut bytes = rtbh_bgp::encode_update(&gen::arb_update(rng)).unwrap();
        let hits = rng.gen_range(1..=4usize);
        mutate::mutate_n(rng, &mut bytes, hits);
        oracle::check_bgp_bytes(&bytes);
    });
}

#[test]
fn mutated_logs_never_panic() {
    target("mutated_logs_never_panic", seeds::FUZZ_BGP_LOG_MUTATED).run(1000, |_, rng| {
        let mut bytes = rtbh_bgp::encode_update_log(&gen::arb_update_log(rng, 6)).unwrap();
        let hits = rng.gen_range(1..=4usize);
        mutate::mutate_n(rng, &mut bytes, hits);
        oracle::check_bgp_log_bytes(&bytes);
    });
}

#[test]
fn garbage_never_panics() {
    target("garbage_never_panics", seeds::FUZZ_BGP_GARBAGE).run(1000, |_, rng| {
        let bytes = mutate::random_bytes(rng, 256);
        oracle::check_bgp_bytes(&bytes);
        oracle::check_bgp_log_bytes(&bytes);
    });
}
