//! Differential fuzz: the stride-8 LPM table vs the `PrefixTrie`, for
//! tables built in bulk and for tables grown insert by insert. Tables are
//! fuzzed (random sizes, overlapping prefixes, removals, duplicate
//! inserts); probes mix uniform addresses with the boundary addresses of
//! every inserted prefix — first/last covered address and their
//! out-of-prefix neighbours, where stride-boundary bugs live. At every
//! probe the value-only walk (`FrozenLpm::longest_value`) must return the
//! value of `longest_match` (`oracle::check_lpm_equal`).

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_net::{FrozenLpm, Ipv4Addr, Prefix, PrefixTrie};
use rtbh_rng::{Rng, SliceRandom};
use rtbh_testkit::{gen, oracle, FuzzTarget};

#[test]
fn frozen_lpm_matches_trie() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "lpm_diff",
        test_name: "frozen_lpm_matches_trie",
        base_seed: seeds::FUZZ_LPM_DIFF,
    };
    target.run(400, |_, rng| {
        let n = rng.gen_range(0..=64usize);
        let entries: Vec<(Prefix, u32)> =
            (0..n).map(|i| (gen::arb_prefix(rng), i as u32)).collect();

        // Remove a random subset of inserted prefixes plus a few prefixes
        // that may never have been inserted (removal must be a no-op then).
        let mut removals: Vec<Prefix> = if n == 0 {
            Vec::new()
        } else {
            (0..rng.gen_range(0..=n / 2 + 1))
                .map(|_| entries[rng.gen_range(0..n)].0)
                .collect()
        };
        for _ in 0..rng.gen_range(0..=4usize) {
            removals.push(gen::arb_prefix(rng));
        }

        let prefixes: Vec<Prefix> = entries.iter().map(|(p, _)| *p).collect();
        let probes = probes(rng, &prefixes);
        oracle::check_lpm_scenario(&entries, &removals, &probes);
    });
}

/// Tables grown by `FrozenLpm::insert` in random order must answer like a
/// trie after every insert, and end equal to the bulk build of the same
/// entries. The prefix pool nests on purpose: supernets of drawn prefixes
/// (so shorter prefixes land after longer ones), /0, /32s, sibling /32s
/// under one /24, and re-inserts that replace a value.
#[test]
fn inserted_lpm_matches_trie_after_every_insert() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "lpm_diff",
        test_name: "inserted_lpm_matches_trie_after_every_insert",
        base_seed: seeds::FUZZ_LPM_INSERT,
    };
    target.run(300, |_, rng| {
        let mut pool: Vec<Prefix> = (0..rng.gen_range(0..=24usize))
            .map(|_| gen::arb_prefix(rng))
            .collect();
        for i in 0..pool.len() {
            if rng.gen_bool(0.5) {
                let p = pool[i];
                let len = rng.gen_range(0..=p.len());
                pool.push(Prefix::new(p.network(), len).expect("len <= 32"));
            }
        }
        if rng.gen_bool(0.5) {
            pool.push(Prefix::new(Ipv4Addr::from_u32(0), 0).expect("/0"));
        }
        let slash24 = Prefix::new(gen::arb_addr(rng), 24).expect("/24");
        for _ in 0..rng.gen_range(0..=6u32) {
            let host = slash24.network().wrapping_add(rng.gen_range(0..256u32));
            pool.push(Prefix::host(host));
        }
        if rng.gen_bool(0.5) {
            pool.push(slash24);
        }
        pool.shuffle(rng);
        let probes = probes(rng, &pool);

        let mut trie = PrefixTrie::new();
        let mut lpm = FrozenLpm::new();
        let mut fresh = pool.iter().copied();
        let mut inserted: Vec<Prefix> = Vec::new();
        for value in 0u32.. {
            let prefix = if !inserted.is_empty() && rng.gen_bool(0.25) {
                *inserted.choose(rng).expect("non-empty")
            } else if let Some(p) = fresh.next() {
                inserted.push(p);
                p
            } else {
                break;
            };
            assert_eq!(
                lpm.insert(prefix, value),
                trie.insert(prefix, value),
                "insert({prefix}) returned a different old value"
            );
            for &p in &pool {
                assert_eq!(lpm.get(p), trie.get(p), "get({p}) diverged");
            }
            oracle::check_lpm_equal(&trie, &lpm, &probes);
        }

        // The grown table equals the trie, so the bulk build must too.
        let bulk = FrozenLpm::from_entries(lpm.iter().map(|(p, &v)| (p, v)));
        oracle::check_lpm_equal(&trie, &bulk, &probes);
    });
}

/// 64 uniform addresses plus the boundary addresses of every prefix.
fn probes(rng: &mut impl Rng, prefixes: &[Prefix]) -> Vec<Ipv4Addr> {
    let mut probes: Vec<Ipv4Addr> = (0..64).map(|_| gen::arb_addr(rng)).collect();
    for prefix in prefixes {
        probes.push(prefix.network());
        probes.push(prefix.last_addr());
        probes.push(prefix.network().wrapping_add(u32::MAX)); // network - 1
        probes.push(prefix.last_addr().wrapping_add(1));
    }
    probes
}
